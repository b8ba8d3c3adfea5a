"""Search, optimization, and frame summarization."""

from collections import Counter
from pathlib import Path

import pytest

from fifth import (
    AugmentationTree,
    LearnedOracle,
    Query,
    TraceLog,
    UniformOracle,
    collect_garbage,
    demand_loop,
    exact,
    instantiate,
    optimize,
    parse,
    solve,
)
from fifth.errors import StructuralError
from fifth.language import EXPANDED, SUMMARIZED, UNEXPANDED
from fifth.lattice import truth_value
from fifth.search import _order_values

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def queens_text(n):
    """N-queens over columns q1..qn; diagonals via shifted copies."""
    names = [f"q{i}" for i in range(1, n + 1)]
    lines = [f"(def (queens {' '.join(names)})"]
    vals = " ".join(str(v) for v in range(1, n + 1))
    for q in names:
        lines.append(f"  (choose {q} {vals})")
    lines.append(f"  (alldiff {' '.join(names)})")
    for d in range(1, n):
        lines.append(f"  (const d{d} {d})")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = j - i
            # qi + d != qj and qi - d != qj
            lines.append(f"  (cell u{i}x{j})")
            lines.append(f"  (sum q{i} d{d} u{i}x{j})")
            lines.append(f"  (alldiff u{i}x{j} q{j})")
            lines.append(f"  (cell v{i}x{j})")
            lines.append(f"  (sum v{i}x{j} d{d} q{i})")
            lines.append(f"  (alldiff v{i}x{j} q{j})")
    lines.append(")")
    return "\n".join(lines)


CRYPT = """
(def (crypt s e n d m o r y send more money)
  (choose s 1 2 3 4 5 6 7 8 9)
  (choose e 0 1 2 3 4 5 6 7 8 9)
  (choose n 0 1 2 3 4 5 6 7 8 9)
  (choose d 0 1 2 3 4 5 6 7 8 9)
  (choose m 1 2 3 4 5 6 7 8 9)
  (choose o 0 1 2 3 4 5 6 7 8 9)
  (choose r 0 1 2 3 4 5 6 7 8 9)
  (choose y 0 1 2 3 4 5 6 7 8 9)
  (alldiff s e n d m o r y)
  (const ten 10)
  (const hund 100)
  (const thou 1000)
  (const tthou 10000)
  (int c1 0 1)
  (int c2 0 1)
  (int c3 0 1)

  (cell t1)
  (sum d e t1)
  (cell k1)
  (product c1 ten k1)
  (sum y k1 t1)

  (cell a2)
  (sum n r a2)
  (cell t2)
  (sum a2 c1 t2)
  (cell k2)
  (product c2 ten k2)
  (sum e k2 t2)

  (cell a3)
  (sum e o a3)
  (cell t3)
  (sum a3 c2 t3)
  (cell k3)
  (product c3 ten k3)
  (sum n k3 t3)

  (cell a4)
  (sum s m a4)
  (cell t4)
  (sum a4 c3 t4)
  (cell k4)
  (product m ten k4)
  (sum o k4 t4)

  (cell ws)
  (product s thou ws)
  (cell we)
  (product e hund we)
  (cell wn)
  (product n ten wn)
  (cell p1)
  (sum ws we p1)
  (cell p2)
  (sum p1 wn p2)
  (sum p2 d send)

  (cell wm)
  (product m thou wm)
  (cell wo)
  (product o hund wo)
  (cell wr)
  (product r ten wr)
  (cell p3)
  (sum wm wo p3)
  (cell p4)
  (sum p3 wr p4)
  (sum p4 e more)

  (cell xm)
  (product m tthou xm)
  (cell xo)
  (product o thou xo)
  (cell xn)
  (product n hund xn)
  (cell xe)
  (product e ten xe)
  (cell p5)
  (sum xm xo p5)
  (cell p6)
  (sum p5 xn p6)
  (cell p7)
  (sum p6 xe p7)
  (sum p7 y money)

  (sum send more money))

(query (crypt) (show send more money))
"""

FACT = """
(def (fact n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call fact nm1 rest)
     (product n rest r))
    ((const r 1))))
"""


def queens_query(n, **kw):
    return Query(entry="queens",
                 show=tuple(f"q{i}" for i in range(1, n + 1)), **kw)


def boards(result):
    out = set()
    for cells in result.assignments():
        out.add(tuple(cells[k] for k in sorted(cells, key=lambda s: int(s[1:]))))
    return out


# -- solve -----------------------------------------------------------------


def test_queens4_exact_solution_set():
    prog = parse(queens_text(4))
    res = solve(prog, queens_query(4))
    assert boards(res) == {(2, 4, 1, 3), (3, 1, 4, 2)}
    assert res.stats["complete"]


def test_queens5_count():
    prog = parse(queens_text(5))
    res = solve(prog, queens_query(5))
    assert len(res.solutions) == 10


def test_queens6_count():
    prog = parse(queens_text(6))
    res = solve(prog, queens_query(6))
    assert len(res.solutions) == 4
    assert res.stats["complete"]


def test_queens_solutions_satisfy_rules():
    prog = parse(queens_text(5))
    res = solve(prog, queens_query(5))
    for b in boards(res):
        assert len(set(b)) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(b[i] - b[j]) != j - i


def test_replay_solution_is_consistent():
    # writing a found solution into a fresh instance must not contradict
    prog = parse(queens_text(4))
    inst = instantiate(prog, "queens")
    for name, v in zip(["q1", "q2", "q3", "q4"], (2, 4, 1, 3)):
        inst.network.write(inst.cell_of(0, name), exact(v), f"replay:{name}")
    inst.network.run_to_quiescence(100_000)
    assert inst.network.contradiction is None


def test_replay_non_solution_contradicts():
    prog = parse(queens_text(4))
    inst = instantiate(prog, "queens")
    for name, v in zip(["q1", "q2", "q3", "q4"], (1, 2, 3, 4)):
        inst.network.write(inst.cell_of(0, name), exact(v), f"replay:{name}")
    inst.network.run_to_quiescence(100_000)
    assert inst.network.contradiction is not None


def test_crypt_unique_solution():
    prog = parse(CRYPT)
    query = prog.query
    res = solve(prog, query)
    assert res.assignments() == [
        {"send": 9567, "more": 1085, "money": 10652}
    ]
    assert res.stats["complete"]


def test_solve_reports_partial_targets_as_bounds():
    text = """
    (def (capped x y)
      (int y 0 100)
      (lesseq y x))
    """
    prog = parse(text)
    q = Query(entry="capped", bindings=(("x", 7),), show=("y",),
              precision=10)
    res = solve(prog, q)
    assert len(res.solutions) == 1
    lo, hi = res.solutions[0]["cells"]["y"]
    assert (lo, hi) == (0, 7)


def test_node_budget_marks_incomplete():
    prog = parse(queens_text(6))
    res = solve(prog, queens_query(6, nodes=3))
    assert not res.stats["complete"]
    assert res.stats["nodes"] == 3


def test_depth_budget_marks_incomplete():
    prog = parse(FACT)
    q = Query(entry="fact", bindings=(("n", 10),), show=("r",),
              depth=3)
    res = solve(prog, q)
    assert res.solutions == []
    assert not res.stats["complete"]


def test_undecided_gate_marks_incomplete_without_expanding():
    # n is never bound, so the branch holding the recursive call never
    # opens: nothing is expanded, nothing is refuted, and the search cannot
    # claim a proof
    prog = parse(FACT)
    res = solve(prog, Query(entry="fact", show=("r",), depth=40))
    assert res.solutions == []
    assert not res.stats["complete"]
    assert res.stats["expansions"] == 0


def test_unsat_is_complete_and_empty():
    text = """
    (def (clash a b)
      (choose a 1 2)
      (choose b 1 2)
      (alldiff a b)
      (equal a b))
    """
    prog = parse(text)
    res = solve(prog, Query(entry="clash", show=("a", "b")))
    assert res.solutions == []
    assert res.stats["complete"]


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        Query(entry="x", nodes=-1)
    with pytest.raises(ValueError):
        Query(entry="x")._replace(steps=-1)


def test_recursion_inside_search():
    # branch on k, each branch demands fact(k) lazily; the chain behind
    # the undecided `if n` waits until search has decided k
    text = FACT + """
    (def (pick k r)
      (choose k 3 4 5)
      (call fact k r))
    """
    prog = parse(text)
    res = solve(prog, Query(entry="pick", show=("k", "r"), depth=10))
    got = {(s["cells"]["k"], s["cells"]["r"]) for s in res.solutions}
    assert got == {(3, 6), (4, 24), (5, 120)}


# a call in each branch of `if c`: both branches wait dormant on the choice
# c, which search decides by branching; opening either one first would
# speculate, and each speculative frame would hold two more
SPLIT_CALL = """
(def (rec n r)
  (cell nm1)
  (cell rest)
  (cell c)
  (const one 1)
  (sum nm1 one n)
  (choose c 0 1)
  (if n
    ((if c
      ((call rec nm1 rest) (sum rest one r))
      ((call rec nm1 rest) (sum rest c r))))
    ((const r 0))))
"""


def test_search_decides_gates_before_expanding_behind_them():
    prog = parse(SPLIT_CALL)
    q = Query(entry="rec", bindings=(("n", 3),), show=("r",),
              depth=50)
    res = solve(prog, q)
    assert len(res.solutions) == 16
    assert res.stats["complete"]
    # one expansion per frame on each of the 8 paths through c, shared
    # along common prefixes: 2 + 4 + 8
    assert res.stats["expansions"] == 14


# -- oracles ---------------------------------------------------------------


class _HighFirst:
    """Prefers larger candidate values; order changes, answers must not."""

    def scores(self, instance, descriptors):
        return [float(info.value) for _, info, _ in descriptors]


def test_solution_set_is_oracle_independent():
    prog = parse(queens_text(5))
    a = solve(prog, queens_query(5), oracle=UniformOracle())
    b = solve(prog, queens_query(5), oracle=_HighFirst())
    assert boards(a) == boards(b)
    assert a.stats["complete"] and b.stats["complete"]


def test_oracle_steers_first_solution():
    text = """
    (def (free a)
      (choose a 1 2 3))
    """
    prog = parse(text)
    q = Query(entry="free", show=("a",), nodes=2)
    low = solve(prog, q, oracle=UniformOracle())
    high = solve(prog, q, oracle=_HighFirst())
    assert low.solutions[0]["cells"]["a"] == 1
    assert high.solutions[0]["cells"]["a"] == 3


def _answers(result):
    return Counter(tuple(sorted(s["cells"].items()))
                   for s in result.solutions)


def _trained(programs):
    log = TraceLog()
    for prog, query in programs:
        solve(prog, query, trace=log)
    tree = AugmentationTree()
    tree.train_from_traces(log, seed=0)
    return LearnedOracle(tree)


def test_value_order_cannot_change_the_nodes_of_a_complete_enumeration():
    """Branching picks its variable from the node's state alone, so a solve
    that ends without a cut visits the same nodes under any value order;
    only the order of the answers moves. Every oracle here turns the memo
    off, so no replay hides a node."""
    queens = [(parse(queens_text(5)), queens_query(5))]
    csps = [(prog, prog.query) for prog in (
        parse(f.read_text())
        for f in sorted((CORPUS / "csp" / "eval").glob("*.5th")))]
    train = [(prog, prog.query) for prog in (
        parse((CORPUS / "csp" / "train" / f"train-0{i}.5th").read_text())
        for i in (0, 5, 7))]
    blank = LearnedOracle(AugmentationTree())
    for cases, learned in ((queens, _trained(queens)), (csps, _trained(train))):
        moved = Counter()
        for prog, query in cases:
            base = solve(prog, query, oracle=blank)
            assert base.stats["complete"]
            for name, oracle in (("high", _HighFirst()), ("learned", learned)):
                other = solve(prog, query, oracle=oracle)
                assert other.stats["memo_hits"] == 0
                assert other.stats["nodes"] == base.stats["nodes"]
                assert _answers(other) == _answers(base)
                moved[name] += other.solutions[:1] != base.solutions[:1]
        # the orders do differ, so equal counts are not for want of a change
        assert moved["high"] > 0 and moved["learned"] > 0


class _Fixed:
    """Scores the candidates from a fixed list, in the order given."""

    def __init__(self, scores):
        self.given = scores

    def scores(self, instance, descriptors):
        return list(self.given)


@pytest.mark.parametrize("scores,expected", [
    ([0.0, 0.0, 0.0, 0.0], [1, 2, 5, 7]),
    ([0.75, 0.75, 0.75, 0.75], [1, 2, 5, 7]),
    ([0.1, 0.9, 0.5, 0.3], [2, 5, 7, 1]),
    ([0.5, 0.9, 0.5, 0.9], [2, 7, 1, 5]),
])
def test_value_order_is_descending_score_then_ascending_value(
        scores, expected):
    inst = instantiate(parse("(def (free a) (choose a 1 2 5 7))"), "free")
    cp = inst.choices[0]
    values = inst.network.content(cp.cell).elements
    assert list(_order_values(inst, cp, values, _Fixed(scores))) == expected


@pytest.mark.parametrize("gc", [False, True])
def test_a_choice_branches_only_on_values_its_declaration_admits(gc):
    prog = parse("(def (p x) (int x 0 9) (choose x 3 4 20))")
    branches = []

    def sink(rec):
        if rec["propagator"].startswith("branch:"):
            branches.append(rec["propagator"])

    res = solve(prog, Query(entry="p", show=("x",)), gc=gc,
                write_sink=sink)
    assert res.assignments() == [{"x": 3}, {"x": 4}]
    # children are cloned, and their branch written, last value first
    assert branches == ["branch:0=4", "branch:0=3"]
    assert res.stats["nodes"] == 3 and res.stats["complete"]


# -- optimize ----------------------------------------------------------------


OPT_TOY = """
(def (toy a b c)
  (choose a 2 5)
  (choose b 1 4)
  (sum a b c))

(query (toy) (show a b c) (minimize c))
"""


def test_optimize_toy_minimum():
    prog = parse(OPT_TOY)
    res = optimize(prog, prog.query)
    assert res.objective == 3
    assert res.solution["cells"] == {"a": 2, "b": 1, "c": 3}
    assert res.proven


def test_optimize_bound_trace_decreases():
    prog = parse(OPT_TOY)
    res = optimize(prog, prog.query)
    bounds = [t["bound"] for t in res.bound_trace]
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[-1] == 3


def test_optimize_without_objective_rejected():
    prog = parse(OPT_TOY)
    q = Query(entry="toy", show=("c",))
    with pytest.raises(StructuralError):
        optimize(prog, q)


def test_optimize_fixed_program_single_node():
    text = """
    (def (fixed c)
      (const c 7))
    """
    prog = parse(text)
    res = optimize(prog, Query(entry="fixed", show=("c",), minimize="c"))
    assert res.objective == 7
    assert res.proven
    assert res.stats["nodes"] == 1


def test_optimize_node_budget_unproven():
    prog = parse(OPT_TOY)
    q = Query(entry="toy", show=("a", "b", "c"), minimize="c",
              nodes=2)
    res = optimize(prog, q)
    assert not res.proven


# c = 2 leaves x in [1, 2], whose lower bound 1 propagation cannot refute
# (1 * 1 != 2); c = 25 pins x to 5
UNATTAINABLE = """
(def (sq c x)
  (choose c 2 25)
  (int x 1 10)
  (product x x c))

(query (sq) (show c) (minimize x))
"""


def test_optimize_skips_a_leaf_whose_lower_bound_is_unattainable():
    prog = parse(UNATTAINABLE)
    res = optimize(prog, prog.query)
    assert res.objective == 5
    assert res.solution["cells"] == {"c": 25}
    assert [t["bound"] for t in res.bound_trace] == [5]
    assert res.proven


# x = 5 is the only answer, but propagation leaves x in [0, 10] (the
# product inverse skips a divisor range holding 0), which precision 10
# accepts as a leaf whose lower bound 0 is unattainable
SQUARE_ROOT = """
(def (sq x c)
  (int x 0 10)
  (const c 25)
  (product x x c))

(query (sq) (show x) (minimize x) (precision 10))
"""


def test_optimize_searches_above_an_unattainable_integer_bound():
    prog = parse(SQUARE_ROOT)
    res = optimize(prog, prog.query)
    assert res.objective == 5
    assert res.solution["cells"] == {"x": 5}
    assert res.proven
    assert res.stats["nodes"] == 2


class _Deadends:
    def __init__(self):
        self.provenance = []

    def node(self, inst):
        pass

    def solution(self, inst):
        pass

    def deadend(self, inst):
        net = inst.network
        self.provenance.append(net.content(net.contradiction).provenance)


def test_node_cut_by_the_bound_names_it_in_provenance():
    prog = parse(OPT_TOY)
    trace = _Deadends()
    res = optimize(prog, prog.query, trace=trace)
    assert res.objective == 3
    # root, a = 2, then the leaf b = 1; its sibling b = 4 and a = 5 are
    # both cut by c <= 2
    assert res.stats["nodes"] == 5
    assert len(trace.provenance) == 2
    assert all("bound:incumbent" in p for p in trace.provenance)


def test_an_if_whose_branches_both_fail_dies_on_its_refutes():
    # x = 3 is neither <= 0 nor equal to 0: the then-branch refutes o to 0,
    # the else-branch away from 0, so the root dies on o before either
    # branch opens or search branches, and its provenance names the refutes
    prog = parse("(def (f o) (const x 3) (const z 0) (choose o 0 1)"
                 " (if o ((lesseq x z)) ((equal x z))))")
    trace = _Deadends()
    res = solve(prog, Query(entry="f", show=("o",)), trace=trace)
    assert res.solutions == [] and res.stats["nodes"] == 1
    o = instantiate(prog, "f").cell_of(0, "o")
    provenance, = trace.provenance
    assert f"refute:{o}" in provenance


# -- summarization -----------------------------------------------------------


def run_fact(n, depth=10_000):
    prog = parse(FACT)
    inst = instantiate(prog, "fact", {"n": n})
    r = inst.cell_of(0, "r")
    demand_loop(inst, (r,), depth, 1_000_000)
    return inst, r


def test_collect_garbage_counts_decided_frames():
    inst, r = run_fact(10)
    assert inst.network.content(r) == exact(3628800)
    report = collect_garbage(inst)
    assert len(report.summarized) == 10
    assert report.dropped_cells > 0


def test_collect_garbage_preserves_answers():
    inst, r = run_fact(10)
    collect_garbage(inst)
    assert inst.network.content(r) == exact(3628800)
    assert inst.network.content(inst.cell_of(0, "n")) == exact(10)
    assert inst.network.contradiction is None


def test_collect_garbage_skips_undecided_frames():
    inst, r = run_fact(10, depth=3)  # bottom of the chain still unexpanded
    report = collect_garbage(inst)
    assert report.summarized == ()


def test_collect_garbage_keeps_root():
    inst, r = run_fact(6)
    collect_garbage(inst)
    assert inst.root.state == EXPANDED


def test_collect_garbage_marks_frames_and_prunes_cellmaps():
    inst, r = run_fact(6)
    report = collect_garbage(inst)
    for fid in report.summarized:
        f = inst.frames[fid]
        assert f.state == SUMMARIZED
        assert f.cellmap == {}


def test_collect_garbage_leaves_refuted_leaves_alone():
    # the call under fact(0) sits in a branch its condition refutes, so it
    # never became a frame: the whole chain folds, and nothing is left
    # unexpanded or dormant for a later pass to trip over
    inst, r = run_fact(6)
    report = collect_garbage(inst)
    assert len(report.summarized) == 6
    assert not any(f.state == UNEXPANDED for f in inst.frames)
    assert inst.dormant == []


def test_collect_garbage_folds_nothing_while_propagators_are_queued():
    # a queued propagator of a folded frame would read a dropped cell, so
    # folding waits until the network is quiescent
    inst, r = run_fact(6)
    net = inst.network
    net.attach("less_equal", (inst.cell_of(0, "n"), r))
    assert not net.quiescent
    stored = list(net.contents)
    assert collect_garbage(inst) == ((), 0)
    assert net.contents == stored
    assert not any(f.state == SUMMARIZED for f in inst.frames)
    net.run_to_quiescence()
    assert len(collect_garbage(inst).summarized) == 6


# fact with `one` declared in the branch: each frame has its own, exact
# before the branch's `sum` attaches
BRANCH_ONE_FACT = """
(def (fact n r)
  (cell nm1)
  (cell rest)
  (if n
    ((const one 1)
     (sum nm1 one n)
     (call fact nm1 rest)
     (product n rest r))
    ((const r 1))))
"""


def test_a_propagator_left_on_a_dropped_cell_watches_only_exact_cells():
    # folding detaches nothing: a propagator that reads a dropped cell stays
    # attached, and stays on a watcher tuple only where the cell is exact,
    # which no write can wake. Every cell below the root's own is dropped,
    # so only a propagator reading a root cell is still listed: frame 1's
    # `product n rest r`, on the root's rest
    prog = parse(BRANCH_ONE_FACT)
    inst = instantiate(prog, "fact", {"n": 10})
    r = inst.cell_of(0, "r")
    demand_loop(inst, (r,), 10_000, 1_000_000)
    assert inst.network.content(r) == exact(3628800)
    collect_garbage(inst)
    net = inst.network
    dropped = {c for c, info in enumerate(net.contents) if info is None}
    left = set()
    for cid, pids in enumerate(net.watchers):
        for pid in pids:
            if dropped.intersection(net.propagators[pid].cells):
                left.add(pid)
                assert net.contents[cid].kind == "exact"
    assert len(left) == 1


def test_collect_garbage_then_clone_still_works():
    inst, r = run_fact(6)
    collect_garbage(inst)
    fresh = inst.clone()
    assert fresh.network.content(r) == exact(720)
    rep = fresh.network.run_to_quiescence(10_000)
    assert fresh.network.contradiction is None
    assert rep.steps_used == 0


COUNT = """
(def (count n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call count nm1 rest)
     (sum rest one r))
    ((const r 0))))
"""


class _Leaves:
    def __init__(self):
        self.leaves = []

    def node(self, inst):
        pass

    def solution(self, inst):
        self.leaves.append(inst)

    def deadend(self, inst):
        pass


@pytest.mark.parametrize("text,entry", [(FACT, "fact"), (COUNT, "count")],
                         ids=["fact", "count"])
def test_gc_empties_the_cellmap_of_every_frame_it_folds(text, entry):
    # the 12 frames under the root fold and keep no cell; the root's `if n`
    # still holds, and the refuted branch under n = 0 left neither a frame
    # nor a dormant entry
    trace = _Leaves()
    q = Query(entry=entry, bindings=(("n", 12),), show=("r",))
    res = solve(parse(text), q, trace=trace, gc=True)
    inst, = trace.leaves
    folded = inst.frames[1:]
    assert all(f.state == SUMMARIZED and f.cellmap == {} for f in folded)
    assert len(folded) == res.stats["summarized"] == 12
    assert inst.dormant == []
    assert truth_value(inst.network.content(inst.cell_of(0, "n"))) is True


def test_gc_never_drops_the_shared_constant_cell():
    # every frame's `one` names the one cell of the value 1, which folding
    # keeps, as it keeps the root's cells; each of the 12 folded frames
    # drops the 2 cells it owns, nm1 and rest
    prog = parse(COUNT)
    assert prog.constants == (exact(1),)
    q = Query(entry="count", bindings=(("n", 12),), show=("r",))
    leaves = _Leaves()
    plain = solve(prog, q, trace=leaves)
    folded = solve(prog, q, trace=leaves, gc=True)
    assert folded.solutions == plain.solutions == [{"cells": {"r": 12}}]
    assert folded.stats["summarized"] == 12
    unfolded, inst = leaves.leaves
    assert {f.cellmap["one"] for f in unfolded.frames} == {0}
    net = inst.network
    assert net.origins[0] == ("", "(const 1)") and net.contents[0] == exact(1)
    assert sum(info is None for info in net.contents) == 24
    assert all(net.contents[c] is not None
               for c in inst.root.cellmap.values())


# every frame posts nm1 <= n in a branch whose condition c nothing decides;
# that branch could post no choose or call, so it must not keep its frame
GUARDED_COUNT = COUNT.replace("(const one 1)",
                              "(const one 1) (int c 0 1)"
                              " (if c ((lesseq nm1 n)) ())")


def test_gc_folds_a_frame_whose_dormant_branch_posts_no_search():
    q = Query(entry="count", bindings=(("n", 6),), show=("r",))
    res = solve(parse(GUARDED_COUNT), q, gc=True)
    assert res.assignments() == [{"r": 6}]
    assert res.stats["summarized"] == res.stats["expansions"] == 6


class _OrderingPair:
    """Per quiesced node: whether the ordering bit o0 is decided, and how
    many of the two `lesseq` its `if` chooses between are attached."""

    def __init__(self):
        self.seen = []

    def node(self, inst):
        net = inst.network
        if net.contradiction is not None:
            return
        cell = inst.root.cellmap.get
        pair = {(cell("e0x0"), cell("s1x1")), (cell("e1x1"), cell("s0x0"))}
        attached = sum(p.kind == "less_equal" and p.cells in pair
                       for p in net.propagators)
        decided = net.content(cell("o0")).kind == "exact"
        self.seen.append((decided, attached))

    def solution(self, inst):
        pass

    def deadend(self, inst):
        pass


def test_jobshop_branch_attaches_one_ordering_lesseq():
    prog = parse((CORPUS / "jobshop" / "js-3x3-a.5th").read_text())
    pairs = _OrderingPair()
    optimize(prog, prog.query, trace=pairs)
    assert set(pairs.seen) == {(False, 0), (True, 1)}


def test_solve_gc_on_a_long_chain():
    # deeper than the Python stack limit: summarization must not recurse
    # along the chain, and the whole chain folds
    prog = parse(COUNT)
    for n in (1200, 5000):
        q = Query(entry="count", bindings=(("n", n),), show=("r",))
        res = solve(prog, q, gc=True)
        assert res.assignments() == [{"r": n}]
        assert res.stats["expansions"] == res.stats["summarized"] == n


# x is pinned in every recursive frame but open at the bottom one, where
# the choice d waits in the dormant branch of `if x`; the parent is decided
# first and must not fold while that child could still post its choice
OPEN_BOTTOM = """
(def (f n r)
  (cell nm1) (cell rest) (cell x) (cell d)
  (const one 1)
  (sum nm1 one n)
  (choose x 0 1)
  (if n ((const x 1)) ())
  (if x ((choose d 3 4)) ())
  (if n ((call f nm1 rest) (sum rest one r)) ((const r 0))))
"""


@pytest.mark.parametrize("n", [2, 3])
def test_gc_keeps_a_parent_while_its_child_reads_its_gate(n):
    prog = parse(OPEN_BOTTOM)
    q = Query(entry="f", bindings=(("n", n),), show=("r",))
    plain = solve(prog, q)
    folded = solve(prog, q, gc=True)
    assert len(plain.assignments()) == 3 * 2 ** n
    assert folded.stats["complete"]
    assert folded.assignments()
    assert {s["r"] for s in folded.assignments()} == {n}


# every frame chooses c, but r never reads it: each frame's boundary is
# exact before search branches on its c, and the repeats must survive
OPEN_CHOICE = """
(def (rec n r)
  (cell nm1) (cell rest) (cell c)
  (choose c 1 2)
  (const one 1)
  (sum nm1 one n)
  (if n ((call rec nm1 rest) (product n rest r)) ((const r 0))))
"""


def test_gc_keeps_a_frame_with_an_open_choice():
    prog = parse(OPEN_CHOICE)
    q = Query(entry="rec", bindings=(("n", 2),), show=("r",))
    plain = solve(prog, q)
    folded = solve(prog, q, gc=True)
    assert plain.assignments() == [{"r": 0}] * 8
    # the second value of each of the two upper choices repeats the first:
    # 7 nodes, where the full tree of three binary choices has 15
    assert plain.stats["nodes"] == 7 and plain.stats["memo_hits"] == 2
    assert folded.solutions == plain.solutions
    assert folded.stats["nodes"] == plain.stats["nodes"]
    assert folded.stats["summarized"] > 0


def test_memo_keys_the_exact_cells_an_open_cell_shares_a_propagator_with():
    # a = 2 and a = -2 leave b and c the same domains; only a tells the
    # subtrees apart, through the product that still reads b and c. s is
    # branched on first and read by nothing, so s = 1 repeats s = 0
    prog = parse("(def (main s a b c) (choose s 0 1) (choose a -2 2)"
                 " (choose b -1 1) (choose c -2 2) (product a b c))")
    res = solve(prog, Query(entry="main", show=("s", "a", "b", "c")))
    assert res.stats["memo_hits"] == 1
    assert [(x["a"], x["b"], x["c"]) for x in res.assignments()] == [
        (-2, -1, 2), (-2, 1, -2), (2, -1, -2), (2, 1, 2)] * 2
    assert [x["s"] for x in res.assignments()] == [0] * 4 + [1] * 4


def test_memo_keys_the_objective_even_when_exact():
    # o = 1 is searched first, but m = 3 - o is smaller under o = 2; the
    # two nodes differ only in the exact m, so a key without it would
    # prune the better one
    prog = parse("(def (main o m x) (choose o 1 2) (choose x 0 1)"
                 " (const k 3) (sum o m k))")
    res = optimize(prog, Query(entry="main", show=("o", "m", "x"),
                               minimize="m"))
    assert res.objective == 1 and res.proven
    assert res.solution == {"cells": {"o": 2, "m": 1, "x": 0}}


# after c is branched on, the nodes under c = 1 and c = 0 hold only open x
# and z, and differ in the domain the opened branch's `choose` wrote into x
BRANCH_CHOICE = ("(def (f y c x z) (choose y 0 1) (choose c 0 1)"
                 " (if c ((choose x 1 2)) ((choose x 1 2 3))) (choose z 0 1))"
                 " (query (f) (show y c x z))")


def _memo_on_and_off(text):
    prog = parse(text)
    on = solve(prog, prog.query)
    # a write sink watches the search, which turns the memo off
    off = solve(prog, prog.query, write_sink=lambda rec: None)
    assert on.stats["memo_hits"] > 0 and off.stats["memo_hits"] == 0
    assert on.solutions == off.solutions
    assert on.stats["complete"] == off.stats["complete"]
    return on


def test_memo_keys_the_contents_of_open_cells():
    # no neighbour value fixes x's domain: without its contents in the key,
    # the node c = 1 replays c = 0 and shows 3 values of x, not 2 (24
    # answers)
    on = _memo_on_and_off(BRANCH_CHOICE)
    assert len(on.solutions) == 2 * (2 + 3) * 2 == 20
    assert on.stats["complete"]


def test_memo_keys_the_contents_or_the_choices_of_a_node():
    # under c = 0 nothing writes x, so no leaf is reached and the search is
    # incomplete; the c = 0 and c = 1 nodes then differ in x's contents
    # and in whether x's choice is unsettled: the key needs one of the two
    # (12 answers without both)
    on = _memo_on_and_off(BRANCH_CHOICE.replace("((choose x 1 2 3))", "()"))
    assert len(on.solutions) == 2 * 2 * 2 == 8
    assert not on.stats["complete"]


def test_memo_keys_the_expansions_made():
    # memo off gives 3 answers: under c = 1 the call to g spends one of the
    # two expansions, so x = 2 cannot expand w and is cut. A key without
    # the count lets c = 1 replay c = 0's subtree, which had one to spare
    prog = parse("(def (g x) (choose x 1 2))"
                 " (def (w y) (const y 9))"
                 " (def (k x y) (cell d) (const one 1) (sum d one x)"
                 " (if d ((call w y)) ((const y 0))))"
                 " (def (f c x y) (choose c 0 1)"
                 " (if c ((call g x)) ((choose x 1 2))) (call k x y))"
                 " (query (f) (show c x y) (depth 2))")
    on = solve(prog, prog.query)
    off = solve(prog, prog.query, write_sink=lambda rec: None)
    assert on.solutions == off.solutions
    assert [tuple(s["cells"].values()) for s in on.solutions] == [
        (0, 1, 0), (0, 2, 9), (1, 1, 0)]
    assert not on.stats["complete"] and not off.stats["complete"]


def test_memo_keys_the_unsettled_choices():
    # x < z < y. Under s = 1 the choices are x and z, under s = 0 z and y;
    # the equal tie gives x and y the same domain either way, so only the
    # choice list tells the nodes apart. Search breaks the tie between
    # equal domains by cell id: x before z, but z before y
    on = _memo_on_and_off("(def (f s x z y) (choose s 0 1) (choose z 1 2)"
                          " (equal x y)"
                          " (if s ((choose x 1 2)) ((choose y 1 2))))"
                          " (query (f) (show s x z))")
    assert [tuple(a.values()) for a in on.assignments()] == [
        (0, 1, 1), (0, 2, 1), (0, 1, 2), (0, 2, 2),
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]


def test_memo_keys_the_dormant_branches_in_order():
    # s = 0 opens a's branch before b's, s = 1 b's before a's, so the two
    # `if x` branches of h wait in opposite orders with the same cells and
    # contents. x = 1 opens both at once and expands their calls in that
    # order; the first call's w has the lower cell id and is branched on
    # first, so o1 varies slowest under s = 0 and o2 under s = 1
    on = _memo_on_and_off(
        "(def (g out) (cell w) (choose w 1 2) (equal w out))"
        " (def (h a b x o1 o2)"
        " (if a ((if x ((call g o1)) ((const o1 0)))) ())"
        " (if b ((if x ((call g o2)) ((const o2 0)))) ()))"
        " (def (main s a b x o1 o2) (choose s 0 1) (choose a 0 1)"
        " (choose b 0 1) (choose x 0 1)"
        " (if s ((const b 1)) ((const a 1))) (call h a b x o1 o2))"
        " (query (main) (show s x o1 o2))")
    assert [tuple(a.values()) for a in on.assignments()] == [
        (0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 1), (0, 1, 2, 2),
        (1, 0, 0, 0), (1, 1, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2), (1, 1, 2, 2)]


def test_memo_keys_the_definitions_of_waiting_frames():
    # t = 1 calls e on q and f on r, t = 0 the reverse. Once k = 1 opens
    # f's outer branch, each node holds two frames over (c, q, k) and
    # (c, r, k) whose branches on c wait in the same order with the same
    # cells; only the definitions say which of q and r c = 1 sets to 5
    on = _memo_on_and_off(
        "(def (e p s k) (if p ((const s 5)) ()))"
        " (def (f p s k) (if k ((if p ((const s 7)) ())) ()))"
        " (def (main t k c q r) (choose t 0 1) (choose k 0 1)"
        " (choose c 0 1) (choose q 5 7) (choose r 5 7)"
        " (if t ((call e c q k) (call f c r k))"
        " ((call f c q k) (call e c r k))))"
        " (query (main) (show t k c q r))")
    answers = [tuple(a.values()) for a in on.assignments()]
    assert (0, 1, 1, 7, 5) in answers and (1, 1, 1, 5, 7) in answers


def test_memo_keys_the_cells_of_waiting_frames():
    # c = 1 calls g on q, c = 0 on r: the two nodes hold one frame of g
    # with the same definition, branch and contents, but a = 1 sets a
    # different cell to 5
    on = _memo_on_and_off("(def (g p q) (if p ((const q 5)) ()))"
                          " (def (f c a q r) (choose c 0 1) (choose a 0 1)"
                          " (choose q 0 5) (choose r 0 5)"
                          " (if c ((call g a q)) ((call g a r))))"
                          " (query (f) (show c a q r))")
    answers = [tuple(a.values()) for a in on.assignments()]
    assert (0, 1, 0, 5) in answers and (0, 1, 5, 0) not in answers
    assert (1, 1, 5, 0) in answers and (1, 1, 0, 5) not in answers


def test_memo_keys_the_last_propagator():
    # c = 1 attaches y <= x, which prunes nothing until x is branched on:
    # the z = 0 nodes under c = 0 and c = 1 hold the same cells and
    # contents, and only the attached propagators tell them apart
    on = _memo_on_and_off("(def (f c z x y) (choose c 0 1) (choose z 0 1)"
                          " (choose x 1 2) (choose y 1 2)"
                          " (if c ((lesseq y x)) ()))"
                          " (query (f) (show c x y))")
    assert [tuple(a.values()) for a in on.assignments()] == (
        [(0, x, y) for x in (1, 2) for y in (1, 2)] * 2
        + [(1, 1, 1), (1, 2, 1), (1, 2, 2)] * 2)


def test_memo_keys_which_cells_are_open():
    # s = 0 pins v and s = 1 pins u; the other stays [0, 1], which the
    # precision lets stand. The z nodes then hold one open range each with
    # the same contents, so only the open cells' ids tell u from v, and a
    # replay of s = 0 would show v = 1 under s = 1
    prog = parse("(def (f s z u v) (choose s 0 1) (choose z 0 1)"
                 " (int u 0 1) (int v 0 1) (if s ((const u 1)) ((const v 1))))"
                 " (query (f) (show s u v) (precision 1))")
    on = solve(prog, prog.query)
    assert on.solutions == solve(prog, prog.query,
                                 write_sink=lambda rec: None).solutions
    assert on.assignments() == [{"s": 0, "u": [0, 1], "v": 1}] * 2 + [
        {"s": 1, "u": 1, "v": [0, 1]}] * 2


def test_memo_keys_the_contents_of_waiting_frames():
    # the x nodes under s = 0 and s = 1 differ only in s, an exact cell
    # no propagator reads, until x = 1 opens the branch that copies s
    # into y
    prog = parse("(def (f s x y) (choose s 0 1) (choose x 0 1)"
                 " (if x ((equal y s)) ((const y 5))))"
                 " (query (f) (show s x y))")
    on = solve(prog, prog.query)
    assert on.solutions == solve(prog, prog.query,
                                 write_sink=lambda rec: None).solutions
    assert [tuple(a.values()) for a in on.assignments()] == [
        (0, 0, 5), (0, 1, 0), (1, 0, 5), (1, 1, 1)]
