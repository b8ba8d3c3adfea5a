"""Property tests: random small recursive programs give the same solutions,
and with the memo off the same node counts, as a search that folds no
frame, the same answers under permuted scheduling, and those answers match
a direct evaluation of the recursion; a call answers like its body written
inline, whichever argument cells it repeats, folding or not; random small
job-shops minimize to the brute-force optimum; random disjunctive
programs, whose `if` branches may refute their conditions, give the
answers and optima of brute-force enumeration; the subproblem memo changes
neither the answers and their order nor the optimum, folding or not, over
both generators and one whose branches hold only `choose` and `call`
statements under a depth budget that runs out in some of them; and
meanwhile no `settle` adds a name to an expanded frame."""

import contextlib
import itertools
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import no_folding
from fifth import JobShopInstance, Query, emit_jobshop_program, optimize
from fifth import language, network, parse, search, solve
from fifth.rng import SplitMix64
from fifth.selftest import _ShuffledQueue

# how each step combines the recursive result `rest` into `r`, and its value
COMBINE = {
    "(sum rest one r)": lambda n, c, rest: rest + 1,
    "(sum rest c r)": lambda n, c, rest: rest + c,
    "(sum rest n r)": lambda n, c, rest: rest + n,
    "(product n rest r)": lambda n, c, rest: n * rest,
}


@st.composite
def recursive_programs(draw):
    """A count/fact-shaped recursion whose step chooses c and branches on
    it through nested ifs; optionally a root choice s with a wider domain,
    so search branches on it after deeper frames are decided and folded;
    optionally a top-level choice x, pinned in every frame with n >= 1 but
    open in the bottom one, with a choice d behind `if x`: the bottom frame
    then reads its parent's gate while the parent is already decided;
    optionally the recursive call sits in both branches of the `if` on c,
    so every child's gate waits on a choice search has yet to make."""
    spec = {
        "n": draw(st.integers(0, 4)),
        "values": draw(st.lists(st.integers(0, 2), min_size=1, max_size=2,
                                unique=True)),
        "then": draw(st.sampled_from(sorted(COMBINE))),
        "else": draw(st.sampled_from(sorted(COMBINE))),
        "base": draw(st.integers(0, 2)),
        "wrap_choose": draw(st.booleans()),
        "wrap_branch": draw(st.booleans()),
        "refuted_calls": draw(st.booleans()),
        "root_choice": draw(st.booleans()),
        "open_bottom": draw(st.booleans()),
        "split_call": draw(st.booleans()),
    }
    return spec, _program_text(spec)


def _program_text(spec):
    call = "(call rec nm1 rest)"
    if spec["refuted_calls"]:
        # a second call per frame behind a gate that is always refuted
        call = f"(if one ({call}) ({call}))"
    choose = f"(choose c {' '.join(map(str, sorted(spec['values'])))})"
    if spec["wrap_choose"]:
        choose = f"(if one ({choose}) ())"
    if spec["split_call"]:
        step = (f"{choose} (if c ({call} {spec['then']})"
                f" ({call} {spec['else']}))")
    else:
        branch = f"(if c ({spec['then']}) ({spec['else']}))"
        step = f"{choose} {call} {branch}"
    if spec["wrap_branch"]:
        step = f"(if one ({step}) ())"
    top = ""
    if spec["open_bottom"]:
        top = ("(cell x) (cell d) (choose x 0 1) (if n ((const x 1)) ()) "
               "(if x ((choose d 3 4)) ())")
    rec = f"""\
(def (rec n r)
  (cell nm1)
  (cell rest)
  (cell c)
  (const one 1)
  (sum nm1 one n)
  {top}
  (if n ({step}) ((const r {spec['base']}))))
"""
    if spec["root_choice"]:
        rec += "(def (top n r s) (choose s 5 6 7) (call rec n r))\n"
    return rec


def _expected(spec):
    """Multiset of r over every assignment of the choices."""
    values = [spec["base"]]
    for k in range(1, spec["n"] + 1):
        values = [
            COMBINE[spec["then"] if c else spec["else"]](k, c, rest)
            for rest in values for c in spec["values"]
        ]
    repeats = 3 if spec["root_choice"] else 1
    if spec["open_bottom"]:
        # d in every frame with n >= 1; x = 0, or x = 1 and d, at the bottom
        repeats *= 2 ** spec["n"] * 3
    return Counter({v: repeats * m for v, m in Counter(values).items()})


def _solve(program, spec, order_seed=None, trace=None):
    entry = "top" if spec["root_choice"] else "rec"
    q = Query(entry=entry, bindings=(("n", spec["n"]),), show=("r",),
              depth=50)
    if order_seed is None:
        res = solve(program, q, trace=trace)
    else:
        rng = SplitMix64(order_seed)
        shuffled = lambda items=(): _ShuffledQueue(items, rng)
        with mock.patch.object(network, "deque", shuffled):
            res = solve(program, q, trace=trace)
    assert res.stats["complete"]
    return res


def _answers(res):
    return Counter(s["r"] for s in res.assignments())


@settings(max_examples=60, deadline=None)
@given(recursive_programs(), st.integers(0, 2**32))
def test_answers_agree_across_gc_and_scheduling(case, order_seed):
    spec, text = case
    program = parse(text)
    expected = _expected(spec)
    # folding leaves a frame with an open choice alone, so search takes
    # the same path with it as without: the same answers in the same
    # order, and with the memo off the same nodes
    for seed in (None, order_seed):
        folded = _solve(program, spec, order_seed=seed)
        unkeyed = _solve(program, spec, order_seed=seed, trace=_Quiet())
        assert _answers(folded) == expected
        with no_folding():
            reference = _solve(program, spec, order_seed=seed)
            unfolded = _solve(program, spec, order_seed=seed, trace=_Quiet())
        assert reference.solutions == folded.solutions
        assert unfolded.stats["nodes"] == unkeyed.stats["nodes"]


# the caller's cells a call may pass: two choices and a constant
POOL = ("x0", "x1", "k0")
# each callee statement and the relation it holds over its cells' values
RELATIONS = {
    "equal": (2, lambda a, b: a == b),
    "lesseq": (2, lambda a, b: a <= b),
    "sum": (3, lambda a, b, c: a + b == c),
    "product": (3, lambda a, b, c: a * b == c),
    "alldiff": (None, lambda *v: len(set(v)) == len(v)),
}
VALUES = st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)


@st.composite
def calls(draw):
    """A callee over 2-3 parameters built from the catalog statements, with
    an optional `choose` on one parameter, called once with arguments drawn
    with repeats from the caller's choices x0, x1 and constant k0. x0 has
    three values, so the root never meets its targets before the call
    expands."""
    arity = draw(st.integers(2, 3))
    params = [f"p{i}" for i in range(arity)]
    body = []
    for _ in range(draw(st.integers(1, 3))):
        head = draw(st.sampled_from(sorted(RELATIONS)))
        n = RELATIONS[head][0] or draw(st.integers(2, 3))
        body.append((head, tuple(draw(st.sampled_from(params))
                                 for _ in range(n))))
    if draw(st.booleans()):
        body.append(("choose", (draw(st.sampled_from(params)),
                                *draw(VALUES))))
    return {
        "params": params,
        "body": body,
        "args": [draw(st.sampled_from(POOL)) for _ in params],
        "x1": draw(VALUES),
        "k0": draw(st.integers(0, 3)),
    }


def _call_programs(spec):
    """The program with the call, and the same program with the callee's
    body inline, its parameters replaced by the argument names."""
    def text(body):
        return " ".join(f"({head} {' '.join(map(str, args))})"
                        for head, args in body)
    rename = dict(zip(spec["params"], spec["args"]))
    inline = [(head, (rename[args[0]], *args[1:]) if head == "choose"
               else tuple(map(rename.get, args)))
              for head, args in spec["body"]]
    top = (f"(def (main x0 x1 k0) (choose x0 0 1 2) "
           f"(choose x1 {' '.join(map(str, spec['x1']))}) "
           f"(const k0 {spec['k0']})")
    callee = f"(def (g {' '.join(spec['params'])}) {text(spec['body'])})\n"
    return (callee + f"{top} (call g {' '.join(spec['args'])}))\n",
            f"{top} {text(inline)})\n")


def _call_expected(spec):
    """Every (x0, x1, k0) the callee's statements admit, by enumeration."""
    answers = set()
    for point in itertools.product((0, 1, 2), spec["x1"], (spec["k0"],)):
        value = dict(zip(POOL, point))
        cells = dict(zip(spec["params"], (value[a] for a in spec["args"])))
        if all(cells[args[0]] in args[1:] if head == "choose"
               else RELATIONS[head][1](*(cells[a] for a in args))
               for head, args in spec["body"]):
            answers.add(point)
    return answers


@settings(max_examples=150, deadline=None)
@given(calls())
# one cell passed to both parameters of an alldiff
@example({"params": ["p0", "p1"], "body": [("alldiff", ("p0", "p1"))],
          "args": ["x0", "x0"], "x1": [1], "k0": 0})
def test_a_call_answers_like_its_inlined_body(spec):
    # the call and its inline body must each give exactly the enumerated
    # answers, so they agree, and a fault they share still shows
    query = Query(entry="main", show=POOL, depth=5)
    expected = _call_expected(spec)
    for text in _call_programs(spec):
        program = parse(text)
        for folding in (contextlib.nullcontext, no_folding):
            with folding():
                res = solve(program, query)
            assert res.stats["complete"]
            answers = [tuple(a[name] for name in POOL)
                       for a in res.assignments()]
            assert sorted(answers) == sorted(expected), text


@st.composite
def jobshops(draw):
    """2-3 jobs, each visiting all of 2-3 machines in its own order, with
    durations 1-5."""
    machines = draw(st.integers(2, 3))
    jobs = tuple(
        tuple((m, draw(st.integers(1, 5)))
              for m in draw(st.permutations(range(machines))))
        for _ in range(draw(st.integers(2, 3)))
    )
    return JobShopInstance(jobs=jobs, machines=machines)


@settings(max_examples=30, deadline=None)
@given(jobshops())
def test_jobshop_optimum_matches_brute_force(instance):
    program = parse(emit_jobshop_program(instance))
    query = program.query
    want = oracles.jobshop_optimum([list(j) for j in instance.jobs],
                                   instance.machines)
    res = optimize(program, query)
    assert res.proven and res.objective == want


# constants a disjunctive program may declare: small ones, and ±(2^53 + 1),
# where binary64 stops holding every integer
NUMBERS = st.one_of(st.integers(-1, 3),
                    st.sampled_from([2**53 + 1, -2**53 - 1]))
TESTED = {"lesseq": 2, "equal": 2, "sum": 3}


@st.composite
def disjunctive_programs(draw):
    """1-3 `choose` cells c*, 1-2 constants k* and 0-2 cells d* that sum
    two earlier cells, then 1-4 statements, at least one an `if`: a
    `lesseq`, `equal` or `sum`, or an `if` whose then-branch holds 1-2 of
    those and whose else-branch 0-2, and either may nest one more `if`.
    Optionally a cell to minimize. Every cell is pinned once the choices
    are made."""
    choices = [(f"c{i}", "choose",
                tuple(sorted(draw(st.lists(st.integers(0, 2), min_size=1,
                                           max_size=3, unique=True)))))
               for i in range(draw(st.integers(1, 3)))]
    cells = choices + [(f"k{i}", "const", draw(NUMBERS))
                       for i in range(draw(st.integers(1, 2)))]
    for i in range(draw(st.integers(0, 2))):
        earlier = [name for name, _, _ in cells]
        cells.append((f"d{i}", "sum", (draw(st.sampled_from(earlier)),
                                       draw(st.sampled_from(earlier)))))
    names = [name for name, _, _ in cells]
    # a cell, a choice at least half the time
    cell = st.sampled_from(names[:len(choices)]) | st.sampled_from(names)

    def relation():
        head = draw(st.sampled_from(sorted(TESTED)))
        return (head, *(draw(cell) for _ in range(TESTED[head])))

    def branch(depth, least):
        body = [relation() for _ in range(draw(st.integers(least, 2)))]
        if depth < 2 and draw(st.booleans()):
            body.insert(draw(st.integers(0, len(body))), if_(depth + 1))
        return body

    def if_(depth):
        return ("if", draw(cell), branch(depth, 1), branch(depth, 0))

    body = [if_(1) if draw(st.booleans()) else relation()
            for _ in range(draw(st.integers(0, 3)))]
    body.insert(draw(st.integers(0, len(body))), if_(1))
    return {"cells": cells, "body": body,
            "minimize": draw(st.none() | st.sampled_from(names))}


def _disjunctive_text(spec):
    def text(statement):
        if statement[0] == "if":
            _, cond, then, other = statement
            return (f"(if {cond} ({' '.join(map(text, then))})"
                    f" ({' '.join(map(text, other))}))")
        return f"({' '.join(statement)})"

    decls = []
    for name, kind, arg in spec["cells"]:
        if kind == "choose":
            decls.append(f"(choose {name} {' '.join(map(str, arg))})")
        elif kind == "const":
            decls.append(f"(const {name} {arg!r})")
        else:
            decls.append(f"(sum {arg[0]} {arg[1]} {name})")
    params = " ".join(name for name, _, _ in spec["cells"])
    body = " ".join(decls + [text(s) for s in spec["body"]])
    return f"(def (main {params}) {body})\n"


@settings(max_examples=400, deadline=None)
@given(disjunctive_programs())
# x <= z fails by one past 2^53, and z <= x holds: only o = 0 is an answer
@example({"cells": [("o", "choose", (0, 1)), ("x", "const", 2**53 + 1),
                    ("z", "const", 2**53)],
          "body": [("if", "o", [("lesseq", "x", "z")],
                    [("lesseq", "z", "x")])],
          "minimize": None})
# neither else-branch can hold, so d0 in [-1, 0] and d1 in [0, 2] must
# each be nonzero: the write trims the end that is 0
@example({"cells": [("c0", "choose", (0, 1)), ("c1", "choose", (0, 1)),
                    ("k0", "const", -1), ("k1", "const", 3),
                    ("d0", "sum", ("c0", "k0")), ("d1", "sum", ("c1", "c1"))],
          "body": [("if", "d0", [], [("lesseq", "k1", "k0")]),
                   ("if", "d1", [], [("lesseq", "k1", "k0")])],
          "minimize": "d0"})
def test_disjunctive_programs_answer_like_brute_force(spec):
    program = parse(_disjunctive_text(spec))
    shown = tuple(name for name, kind, _ in spec["cells"] if kind == "choose")
    envs = oracles.disjunctive_solutions(spec["cells"], spec["body"])
    expected = sorted(tuple(env[n] for n in shown) for env in envs)
    res = solve(program, Query(entry="main", show=shown))
    assert res.stats["complete"]
    assert sorted(tuple(a[n] for n in shown)
                  for a in res.assignments()) == expected
    obj = spec["minimize"]
    if obj is None:
        return
    best = min((env[obj] for env in envs), default=None)
    query = Query(entry="main", show=shown, minimize=obj)
    res = optimize(program, query)
    assert res.stats["complete"]
    assert res.objective == best and res.proven == (best is not None)
    if best is not None:
        cells = res.solution["cells"]
        assert any(env[obj] == best and all(env[n] == cells[n]
                                            for n in shown)
                   for env in envs)


@st.composite
def gated_programs(draw):
    """A main that chooses c, branches on it and calls k, which branches
    on x - 1. Each branch holds 1-2 `choose` and `call` statements only:
    in main on x, calling g, which writes what a `choose` would but spends
    an expansion; in k on y, calling g or w, which sets 9; in either, g
    on a cell t local to the branch. The depth budget, 2 or 3 expansions,
    runs out in some branches and not others. Optionally x or y is
    minimized."""
    values = draw(st.sampled_from(("1 2", "0 1 2")))

    def branch(cell, *callees):
        statements = [f"(choose {cell} {values})", "(int t 0 2) (call g t)"
                      ] + [f"(call {f} {cell})" for f in callees]
        return " ".join(draw(st.lists(st.sampled_from(statements),
                                      min_size=1, max_size=2)))

    text = (f"(def (g v) (choose v {values})) (def (w v) (const v 9))"
            " (def (k x y) (cell d) (const one 1) (sum d one x)"
            f" (if d ({branch('y', 'g', 'w')}) ({branch('y', 'g', 'w')})))"
            " (def (main c x y) (choose c 0 1)"
            f" (if c ({branch('x', 'g')}) ({branch('x', 'g')}))"
            " (call k x y))")
    query = Query(entry="main", show=("c", "x", "y"),
                  depth=draw(st.integers(2, 3)))
    minimize = draw(st.sampled_from((None, "x", "y")))
    return text, [query] + ([] if minimize is None
                            else [query._replace(minimize=minimize)])


class _Quiet:
    """A trace that records nothing: passing it only turns the memo off."""

    def node(self, inst):
        pass

    solution = deadend = node


def _recursive_case(case):
    spec, text = case
    query = Query(entry="top" if spec["root_choice"] else "rec",
                  bindings=(("n", spec["n"]),), show=("r",),
                  depth=50)
    return text, [query, query._replace(minimize="r")]


def _disjunctive_case(spec):
    shown = tuple(name for name, kind, _ in spec["cells"] if kind == "choose")
    queries = [Query(entry="main", show=shown)]
    if spec["minimize"] is not None:
        queries.append(Query(entry="main", show=shown,
                             minimize=spec["minimize"]))
    return _disjunctive_text(spec), queries


@contextlib.contextmanager
def _settle_adds_no_name():
    """Check that no `settle` adds a name to an expanded frame's `cellmap`:
    an `if` declares every name of its branches, so opening one adds none,
    and clones may share the frame (see `language.Frame`)."""
    real = language.settle

    def settle(inst, *args):
        before = [(f, list(f.cellmap)) for f in inst.frames
                  if f.state == language.EXPANDED]
        report = real(inst, *args)
        for f, names in before:
            assert list(f.cellmap) == names
        return report

    with mock.patch.object(language, "settle", settle), \
            mock.patch.object(search, "settle", settle):
        yield


@settings(max_examples=300, deadline=None)
@given(st.one_of(recursive_programs().map(_recursive_case),
                 disjunctive_programs().map(_disjunctive_case),
                 gated_programs()))
def test_the_memo_keeps_answers_their_order_and_optima(case):
    text, queries = case
    program = parse(text)
    for query in queries:
        run = solve if query.minimize is None else optimize
        for folding in (contextlib.nullcontext, no_folding):
            with _settle_adds_no_name(), folding():
                on = run(program, query)
                off = run(program, query, trace=_Quiet())
            assert off.stats["memo_hits"] == 0
            assert on.stats["complete"] == off.stats["complete"]
            assert on.stats["nodes"] <= off.stats["nodes"]
            if query.minimize is None:
                assert on.solutions == off.solutions
            else:
                assert (on.objective, on.solution, on.proven) == (
                    off.objective, off.solution, off.proven)
