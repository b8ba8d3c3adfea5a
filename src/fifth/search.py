"""Branching search over choice cells, branch-and-bound, and summarization
of decided frames.

Branching never guesses structure: the only splittable things are `choose`
cells, and a branch is just a clone of the instance plus one exact write.
Variable order is smallest-domain-first; a guidance oracle may reorder the
values tried, never the variables, so learned guidance can change the cost
of search but not its answers.
"""

import math
from collections import namedtuple
from types import NoneType

from .errors import StructuralError
from .language import (
    EXPANDED,
    Frame,
    Instance,
    Program,
    Query,
    SUMMARIZED,
    demand_loop,
    instantiate,
    may_post,
    settle,
    unsettled_choices,
)
from .lattice import Exact, bounds_of, exact, int_interval
from .network import overflowed


class UniformOracle:
    """Scores every candidate the same; value order falls back to ascending."""

    def scores(self, instance, descriptors):
        return [0.0] * len(descriptors)


class SolutionSet(namedtuple("SolutionSet", "solutions stats")):
    __slots__ = ()

    def as_json(self):
        return {"solutions": self.solutions, "stats": self.stats}

    def assignments(self):
        return [s["cells"] for s in self.solutions]


class OptimizeResult(namedtuple(
        "OptimizeResult", "solution objective proven bound_trace stats")):
    __slots__ = ()

    def as_json(self):
        return {
            "solutions": [] if self.solution is None else [self.solution],
            "objective": self.objective,
            "proven": self.proven,
            "bound_trace": self.bound_trace,
            "stats": self.stats,
        }


class _SearchState:
    __slots__ = ("stack", "nodes", "steps", "expansions", "summarized",
                 "cuts", "memo_hits", "solutions", "incumbent")

    def __init__(self):
        self.stack = []
        self.nodes = self.steps = self.expansions = self.summarized = 0
        self.cuts = 0  # nodes cut by a budget or left under-determined
        self.memo_hits = 0
        self.solutions = []
        self.incumbent = None


def _branch_candidates(inst, cp):
    # once its domain is written, a choice cell holds a finite domain, an
    # exact value or a contradiction: merging a finite domain never widens
    content = inst.network.contents[cp.cell]
    if content.kind == "finite_domain":
        return content.elements
    return ()


def _pick_choice(inst, choices):
    """Smallest domain among `choices`, ties by lowest cell id.
    Returns (cp, values)."""
    best = None
    best_vals = None
    for cp in choices:
        vals = _branch_candidates(inst, cp)
        if len(vals) < 2:
            continue
        if (
            best is None
            or len(vals) < len(best_vals)
            or (len(vals) == len(best_vals) and cp.cell < best.cell)
        ):
            best, best_vals = cp, vals
    return best, best_vals


def _order_values(inst, cp, values, oracle):
    if type(oracle) is UniformOracle:
        return values  # equal scores keep the ascending order
    descriptors = [(cp.cell, exact(v), cp.frame) for v in values]
    scores = oracle.scores(inst, descriptors)
    if min(scores) == max(scores):
        return values  # ascending already
    ranked = sorted(zip(values, scores), key=lambda t: (-t[1], t[0]))
    return [v for v, _ in ranked]


def _target_values(inst, targets):
    """Exact values as numbers, anything else as its [lo, hi] hull, with
    null for an open (infinite) end."""
    cells = {}
    contents = inst.network.contents
    for n, cid in targets.items():
        content = contents[cid]
        lo, hi = bounds_of(content)
        if content.kind == "exact":
            cells[n] = lo
        else:
            cells[n] = [None if lo == -math.inf else lo,
                        None if hi == math.inf else hi]
    return cells


def _run_node(inst, query, state, targets):
    """Quiesce one branch. Returns the demand report."""
    report = demand_loop(
        inst,
        targets.values(),
        max(query.depth - inst.expansions, 0),
        query.steps,
        query.precision,
    )
    state.nodes += 1
    state.steps += report.steps_used
    state.expansions += report.expansions
    if report.depth_exhausted or report.steps_exhausted:
        state.cuts += 1
    return report


def _stats(state):
    return {
        "nodes": state.nodes,
        "steps": state.steps,
        "expansions": state.expansions,
        "summarized": state.summarized,
        "complete": state.cuts == 0,
        "memo_hits": state.memo_hits,
    }


def _dfs(root, targets, query, state, leaf, oracle, trace, gc, write_sink,
         pre_run=None, objective=None):
    """The depth-first search loop behind solve() and optimize(), from the
    query's `root`. `targets` maps each target to its cell, resolved once:
    the root never folds, and its cells keep their ids in every clone.

    Each popped node goes to `pre_run`, if given, which may write into it
    (optimize() posts its incumbent bound), then is quiesced and reported
    to `trace`; contradicted and half-run nodes go no further, and one
    stopped by an overflow (a value past ±2^62, see `network._range_write`)
    is cut, never reported as a dead end. A surviving node is handed to
    `leaf` when every attached choice is decided and no dormant `if` branch
    could still post a `choose`, and otherwise split on one choice cell,
    one clone per value; with no cell to split on, it leaves the search
    incomplete.

    Unless the search is watched or guided (an oracle reads cells outside
    the key), a node about to split is looked up by `_memo_key` in a memo of
    the subtrees searched without a cut. A repeat goes no further: solve()
    replays that subtree's solutions, optimize() (given `objective`) prunes.
    """
    oracle = oracle or UniformOracle()
    if write_sink is not None:
        root.network.trace_sink = write_sink
    watched = trace or write_sink or type(oracle) is not UniformOracle
    memo, shapes = (None if watched else {}), {}
    wide = None  # the propagators reading every cell branched on so far
    state.stack.append(root)
    while state.stack:
        inst = state.stack.pop()
        if type(inst) is tuple:  # a marker: the subtree above it is done
            if inst[2] == state.cuts:
                memo[inst[0]] = state.solutions[inst[1]:]
            continue
        if state.nodes >= query.nodes:
            state.cuts += 1
            break
        if pre_run is not None:
            pre_run(inst)
        attached = len(inst.network.propagators)
        report = _run_node(inst, query, state, targets)
        if trace is not None:
            trace.node(inst)
        if report.contradiction is not None:
            if overflowed(inst.network):
                state.cuts += 1  # the branch may hold an answer past the limit
            elif trace is not None:
                trace.deadend(inst)
            continue
        if report.steps_exhausted:
            # pending propagators could still contradict; the branch is
            # abandoned as incomplete rather than judged on a half-run
            continue
        if gc:
            state.summarized += len(collect_garbage(inst).summarized)
        choices = unsettled_choices(inst)
        if report.targets_met and not choices and not may_post(
                inst, ("choose",)):
            leaf(inst)
            continue
        cp, values = _pick_choice(inst, choices)
        if cp is None:
            # not a solution, yet nothing contradicted and nothing is left
            # to branch on: the branch is under-determined, not refuted
            state.cuts += 1
            continue
        # a node repeats no other node, so is not keyed, when it attached a
        # propagator (only its subtree shares its propagators) or, in a
        # one-frame program, when a live propagator reads every cell
        # branched on (a repeat would hold the same values there)
        contents = inst.network.contents
        if memo is not None and len(inst.network.propagators) == attached \
                and not (len(inst.frames) == 1 and any(
                    type(contents[c]) is not Exact
                    for p in wide or () for c in p.cells)):
            key = _memo_key(inst, gc, objective, shapes)
            seen = memo.get(key)
            if seen is not None:
                state.memo_hits += 1
                if objective is None:  # exact targets are the repeat's own
                    own = _target_values(inst, {
                        n: c for n, c in targets.items()
                        if type(contents[c]) is Exact})
                    state.solutions += [{"cells": {**s["cells"], **own}}
                                        for s in seen]
                continue
            state.stack.append((key, len(state.solutions), state.cuts))
        wide = [p for p in (inst.network.propagators if wide is None else
                            wide) if cp.cell in p.cells]
        ordered = _order_values(inst, cp, values, oracle)
        for v in reversed(ordered):
            child = inst.clone()
            child.network.write(cp.cell, exact(v), f"branch:{cp.cell}={v}")
            state.stack.append(child)


def _memo_key(inst, gc, objective, shapes):
    """What the subtree of a quiesced node can still read (Chu, Garcia de la
    Banda & Stuckey, CPAIOR 2010); a `test_memo_keys_*` test pins each part:
    the last propagator (clones share the attached list); the open cells,
    their contents and the values of exact cells sharing a propagator with
    one; the unsettled choices (search breaks ties by cell id, and `equal`
    gives a cell a choice's domain without making it one); the expansions,
    which the depth budget counts; the dormant branches, in the order a
    decision opens them; the definition, cells and contents of each frame
    holding one; the `objective`. Left out: unexpanded frames (a node
    splits once `demand_loop` has met the targets, spent the depth budget
    or run out of frames, so none expands below it), frame ids (they only
    order frames) and what `collect_garbage` would fold (so `gc` changes no
    key). `shapes` caches the cells read, per last propagator and kinds of
    cell."""
    net, frames = inst.network, inst.frames
    contents, props = net.contents, net.propagators
    folds = [] if gc or len(frames) == 1 else _foldable(inst)
    dropped = frozenset().union(*(cells for _, cells in folds))
    shape = (props[-1] if props else None, tuple(map(type, contents)), dropped)
    cached = shapes.get(shape)
    if cached is None:
        opened = tuple(c for c, t in enumerate(shape[1]) if c not in dropped
                       and t is not Exact and t is not NoneType)
        near = set().union(*[props[p].cells
                             for c in opened for p in net.watchers[c]])
        cached = shapes[shape] = opened, sorted(near.difference(opened))
    opened, near = cached
    folded = {f.id for f, _ in folds}
    dormant = [e for e in inst.dormant if e[0] not in folded]
    waiting = [frames[f] for f in sorted({e[0] for e in dormant})]
    cells = [c for f in waiting for c in f.cellmap.values()]
    return (shape[0], opened, tuple(map(contents.__getitem__, opened)),
            tuple(contents[c].value for c in near),
            tuple(cp.cell for cp in inst.choices), inst.expansions,
            tuple((e[1], e[2], id(e[3])) for e in dormant),
            tuple(f.defname for f in waiting), tuple(cells),
            tuple(map(contents.__getitem__, cells)),
            objective is not None and contents[objective])


def solve(program: Program, query: Query, oracle=None, trace=None,
          gc: bool = False, write_sink=None) -> SolutionSet:
    """Depth-first enumeration of every solution reachable within budgets.

    `trace`, when given, must offer node/solution/deadend callbacks; the
    solver reports every quiesced node to it so guidance can be trained
    from what the search actually saw; it turns the memo (see `_dfs`) off.

    `gc` folds finished frames after each node quiesces (see
    `collect_garbage`), so clones stay small on deep recursions: a folded
    frame keeps no cell. A frame with an open choice or a dormant `if`
    branch that could still post a `choose` or a `call` does not fold, so
    search still branches on a choice the boundary no longer depends on;
    answers, their repeats and node counts do not depend on the flag.

    `write_sink` taps every cell write made during the search (clones
    inherit it); instantiation writes happen before it is installed.
    """
    state = _SearchState()
    root = instantiate(program, query.entry, dict(query.bindings))
    targets = {n: root.cell_of(0, n) for n in query.show}

    def record(inst):
        if trace is not None:
            trace.solution(inst)
        state.solutions.append({"cells": _target_values(inst, targets)})

    _dfs(root, targets, query, state, record, oracle, trace, gc, write_sink)
    return SolutionSet(solutions=state.solutions, stats=_stats(state))


def optimize(program: Program, query: Query, oracle=None,
             trace=None, gc: bool = False, write_sink=None) -> OptimizeResult:
    """Branch-and-bound minimization of the objective cell.

    Once there is an incumbent, each popped node whose objective does not
    already lie within the bound gets the write `bound:incumbent` into its
    objective before it runs: `<= incumbent - 1`, so a leaf that only ties
    is cut. A leaf counts at its objective's lower bound once pinning the
    objective there quiesces without contradiction; the pin's steps count
    in `stats.steps`.
    If the pin contradicts, the objective is searched on above that bound
    (a clone with the write `bound:unattained`); a pin that runs out of
    steps or overflows, and an objective with no lower bound, record
    nothing and make the search incomplete.

    `trace`, `gc`, and `write_sink` behave exactly as in solve(). Each
    improving solution is kept in order; the last one is the optimum.
    """
    if query.minimize is None:
        raise StructuralError("optimize needs an objective")
    state = _SearchState()
    bound_trace = []
    root = instantiate(program, query.entry, dict(query.bindings))
    targets = {n: root.cell_of(0, n) for n in query.show}
    obj_cell = root.cell_of(0, query.minimize)

    def post_bound(inst):
        incumbent = state.incumbent
        if incumbent is None:
            return
        # a child cloned from a node that took the bound already holds it
        r = bounds_of(inst.network.contents[obj_cell])
        if r is not None and r[1] < incumbent:
            return
        inst.network.write(obj_cell, int_interval(-math.inf, incumbent - 1),
                           "bound:incumbent")

    def improve(inst):
        r = bounds_of(inst.network.contents[obj_cell])
        lb = -math.inf if r is None else r[0]
        if state.incumbent is not None and lb >= state.incumbent:
            return
        if lb == -math.inf:  # nothing to pin: no bounds, or open below
            state.cuts += 1
            return
        pinned = inst.clone()
        pinned.network.write(obj_cell, exact(lb), "probe:objective")
        report = settle(pinned, query.steps)
        state.steps += report.steps_used
        if report.contradiction is not None:
            if overflowed(pinned.network):
                # lb may still be attained: searching above it could prove
                # a larger optimum
                state.cuts += 1
                return
            # the lower bound is not attainable in this branch, but a larger
            # value may be
            above = inst.clone()
            above.network.write(obj_cell, int_interval(lb + 1, math.inf),
                                "bound:unattained")
            state.stack.append(above)
            return
        if not report.quiescent:
            # out of steps: a pending propagator could still refute the pin
            state.cuts += 1
            return
        state.incumbent = lb
        state.solutions.append({"cells": _target_values(pinned, targets)})
        bound_trace.append({"nodes": state.nodes, "bound": lb})
        if trace is not None:
            trace.solution(pinned)

    _dfs(root, targets, query, state, improve, oracle, trace, gc, write_sink,
         pre_run=post_bound, objective=obj_cell)
    return OptimizeResult(
        solution=state.solutions[-1] if state.solutions else None,
        objective=state.incumbent,
        proven=state.cuts == 0 and state.incumbent is not None,
        bound_trace=bound_trace,
        stats=_stats(state),
    )


SummarizationReport = namedtuple("SummarizationReport",
                                 "summarized dropped_cells")


def collect_garbage(inst: Instance) -> SummarizationReport:
    """Fold, bottom-up, every frame whose work is finished: expanded, with
    every descendant folded, its boundary exact, every choice attached in
    it decided and no dormant branch that could still post a `choose` or a
    `call`. Folding drops the cells the frame owns (its `cellmap` but its
    boundary and the shared constant cells), puts in its place a frame with
    an empty `cellmap` (clones may share the old one, see `Frame`), forgets
    its dormant branches, and detaches nothing (see `Network.drop_cell`).
    The root, which holds every query target, never folds; a network with
    queued propagators or a contradiction folds nothing."""
    net = inst.network
    quiet = net.quiescent and net.contradiction is None
    folds = _foldable(inst) if quiet else []
    for f, owned in folds:
        for cid in owned:
            net.drop_cell(cid)
        inst.frames[f.id] = Frame(f.id, f.defname, f.parent, f.depth, {},
                                  SUMMARIZED)
    inst.dormant = [e for e in inst.dormant
                    if inst.frames[e[0]].state != SUMMARIZED]
    return SummarizationReport(tuple(f.id for f, _ in reversed(folds)),
                               sum(len(owned) for _, owned in folds))


def _foldable(inst):
    """The frames `collect_garbage` would fold, last first, each with the
    cells it owns."""
    # Children have larger ids than their parents, so one sweep from the
    # last frame back folds bottom-up. A cell passes only down the tree, so
    # once a frame's descendants have folded no live frame reads its cells.
    #
    # An open choice keeps its frame even when the boundary no longer
    # depends on it: search has yet to branch on it, once per repeat. So
    # does a dormant branch that could still post one, or a call. Those
    # frames (`busy`) are found only once a frame passes the cheaper tests.
    contents, program = inst.network.contents, inst.program
    shared = len(program.constants)  # cells 0 .. shared - 1
    busy = None
    unfinished = [False] * len(inst.frames)
    folds = []
    for f in reversed(inst.frames):
        if f.id == 0 or f.state == SUMMARIZED:
            continue
        if f.state == EXPANDED and not unfinished[f.id]:
            boundary = f.boundary_cells(program)
            if all(type(contents[c]) is Exact for c in boundary):
                if busy is None:
                    busy = {cp.frame for cp in unsettled_choices(inst)}
                    busy |= may_post(inst, ("choose", "call"))
                if f.id not in busy:
                    folds.append((f, [c for c in f.cellmap.values()
                                      if c >= shared and c not in boundary]))
                    continue
        unfinished[f.parent] = True
    return folds
