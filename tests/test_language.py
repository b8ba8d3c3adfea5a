import gc
import weakref

import pytest

from fifth import language
from fifth.errors import ParseError, StructuralError
from fifth.language import (
    MAX_IF_NESTING,
    EXPANDED,
    SUMMARIZED,
    UNEXPANDED,
    demand_loop,
    expand,
    instantiate,
    parse,
    settle,
    targets_met,
)
from fifth.lattice import NOTHING, exact, finite_domain, int_interval
from fifth.search import collect_garbage, solve

FACT = """
; factorial by countdown: nm1 + 1 = n ties the frames together
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

COUNTDOWN = """
(def (len n k)
  (cell nm1)
  (cell krest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call len nm1 krest)
     (sum krest one k))
    ((const k 0))))
"""


def run_fact(n, depth=100, steps=100_000):
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": n})
    r = inst.cell_of(0, "r")
    report = demand_loop(inst, [r], depth, steps)
    return inst, r, report


def test_parse_double():
    program = parse("(def (double x y) (sum x x y))")
    d = program.definitions["double"]
    assert d.params == ("x", "y")
    assert len(d.plan) == 1


def test_parse_unknown_call_target():
    with pytest.raises(ParseError) as e:
        parse("(def (f x) (call g x))")
    assert "g" in str(e.value)


def test_parse_fact_structure():
    program = parse(FACT)
    assert list(program.definitions) == ["fact"]
    d = program.definitions["fact"]
    gated = [branches for op, _, branches in d.plan if op == "if"]
    assert len(gated) == 1
    (polarity, then_plan, _, _), _ = gated[0]
    assert polarity is True
    calls = [name for op, name, _ in then_plan if op == "call"]
    assert calls == ["fact"]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("(def (f x)\n  (sum x x y))")
    assert e.value.line == 2
    assert "y" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse("(def (f x) (sum x x)")
    assert e.value.line == 1

    with pytest.raises(ParseError):
        parse("(def (f x) (frobnicate x))")


@pytest.mark.parametrize("text,message", [
    # a scope fault before a later syntax fault
    ("(def (f x)\n  (sum x x y))\n(def (g x)\n  (frobnicate x))",
     "2:3: unbound name 'y' in 'f'"),
    # a call to an undefined definition before a later arity fault
    ("(def (f x)\n  (call g x))\n(def (h x)\n  (sum x x))",
     "2:3: call to undefined 'g' in 'f'"),
], ids=["scope-before-syntax", "undefined-call-before-arity"])
def test_parse_reports_the_first_fault_in_source_order(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parse_query_form():
    program = parse(
        FACT + "(query (fact (n 6)) (show r) (depth 50) (precision 2))"
    )
    q = program.query
    assert q.entry == "fact"
    assert q.bindings == (("n", 6),)
    assert q.show == ("r",)
    assert q.depth == 50
    assert q.precision == 2
    assert q.steps == 1_000_000  # default preserved


def test_query_must_address_parameters():
    with pytest.raises(ParseError):
        parse(FACT + "(query (fact (m 6)) (show r))")
    with pytest.raises(ParseError):
        parse(FACT + "(query (fact (n 6)) (show nm1))")


@pytest.mark.parametrize("query,message", [
    ("(query (g) (show x))", "2:9: query names undefined 'g'"),
    ("(query (f (z 1)) (show x))",
     "2:12: binding 'z' is not a parameter of 'f'"),
    ("(query (f) (show y))", "2:18: show target 'y' is not a parameter of 'f'"),
    ("(query (f) (show x) (minimize q))",
     "2:31: minimize target 'q' is not a parameter of 'f'"),
], ids=["entry", "binding", "show", "minimize"])
def test_query_faults_name_the_offending_atom(query, message):
    with pytest.raises(ParseError) as e:
        parse("(def (f x) (const x 1))\n" + query)
    assert str(e.value) == message


@pytest.mark.parametrize("options,message", [
    ("(depth 3) (depth 5)", "2:31: repeated query option 'depth'"),
    ("(minimize x) (minimize x)", "2:34: repeated query option 'minimize'"),
], ids=["depth", "minimize"])
def test_a_repeated_query_option_is_a_fault(options, message):
    with pytest.raises(ParseError) as e:
        parse(f"(def (f x) (const x 1))\n(query (f) (show x) {options})")
    assert str(e.value) == message


def test_a_repeated_binding_is_a_fault():
    with pytest.raises(ParseError) as e:
        parse("(def (f x y) (sum x x y))\n(query (f (x 1) (x 2)) (show y))")
    assert str(e.value) == "2:17: repeated binding 'x'"


def test_a_repeated_show_target_is_a_fault():
    with pytest.raises(ParseError) as e:
        parse("(def (f x y) (sum x x y))\n(query (f) (show x y x))")
    assert str(e.value) == "2:22: repeated show target 'x'"


def test_instantiate_double():
    program = parse("(def (double x y) (sum x x y))")
    inst = instantiate(program, "double", {"x": 3})
    inst.network.run_to_quiescence()
    assert inst.network.content(inst.cell_of(0, "y")) == exact(6)


def test_instantiate_rejects_unknown_binding():
    program = parse("(def (double x y) (sum x x y))")
    with pytest.raises(StructuralError):
        instantiate(program, "double", {"z": 3})


def test_fact_base_case_zero_expansions():
    inst, r, report = run_fact(0)
    assert inst.network.content(r) == exact(1)
    assert report.expansions == 0
    assert report.targets_met


def test_fact_six():
    inst, r, report = run_fact(6)
    assert inst.network.content(r) == exact(720)
    assert report.expansions == 6


def test_fact_ten_exactly_ten_expansions():
    inst, r, report = run_fact(10)
    assert inst.network.content(r) == exact(3628800)
    assert report.expansions == 10
    assert inst.expansions == 10


def test_fact_unbound_leaves_the_gated_call_dormant():
    # with n unbound the condition never decides, so the branch holding the
    # call never opens: no child frame exists, nothing is expanded, and the
    # depth budget is never reached
    program = parse(FACT)
    inst = instantiate(program, "fact")
    r = inst.cell_of(0, "r")
    report = demand_loop(inst, [r], 3, 100_000)
    assert report.expansions == 0
    assert not report.depth_exhausted
    assert not report.targets_met
    assert inst.network.content(r) == NOTHING
    assert [f.id for f in inst.frames] == [0] and inst.unexpanded == []
    op, _, branches = program.definitions["fact"].plan[-1]
    assert op == "if"
    (_, then_plan, _, then_tests), (_, else_plan, _, else_tests) = branches
    n = inst.cell_of(0, "n")
    assert inst.dormant == [(0, n, True, then_plan, then_tests),
                            (0, n, False, else_plan, else_tests)]
    with_call = [plan for _, _, _, plan, _ in inst.dormant
                 if any(op == "call" for op, _, _ in plan)]
    assert len(with_call) == 1


def test_countdown_four_expansions():
    program = parse(COUNTDOWN)
    inst = instantiate(program, "len", {"n": 4})
    k = inst.cell_of(0, "k")
    report = demand_loop(inst, [k], 100, 100_000)
    assert inst.network.content(k) == exact(4)
    assert report.expansions == 4


def test_expand_creates_one_unexpanded_child():
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 5})
    assert [f.state for f in inst.frames] == [EXPANDED]
    settle(inst)  # n = 5 opens the branch holding the call
    assert [f.state for f in inst.frames] == [EXPANDED, UNEXPANDED]
    # the child's n = 4 is exact before it expands, so its `if n` opens
    # during the expansion, and the grandchild exists with no settle
    expand(inst, 1)
    assert len(inst.frames) == 3 and inst.dormant == []
    child = inst.frames[2]
    assert child.state == UNEXPANDED
    assert child.parent == 1
    assert child.depth == 2


def test_expansion_depth_counter():
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 9})
    settle(inst)
    for k in (1, 2, 3):
        f = expand(inst, k)
        settle(inst)
        assert f.depth == k
    assert inst.expansions == 3


def test_expand_refuted_gate_is_noop():
    # n = 0 refutes the branch holding the call, so settle drops it before
    # it attaches anything: no child frame exists and nothing is expanded
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 0})
    net = inst.network
    before = (len(net.contents), len(net.propagators))
    settle(inst)
    assert [f.id for f in inst.frames] == [0] and inst.unexpanded == []
    assert inst.expansions == 0 and inst.dormant == []
    assert (len(net.contents), len(net.propagators)) == before


def test_expand_twice_rejected():
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 2})
    settle(inst)
    expand(inst, 1)
    with pytest.raises(StructuralError):
        expand(inst, 1)


def test_expand_summarized_rejected():
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 2})
    settle(inst)
    f = inst.frames[1]
    inst.frames[1] = language.Frame(f.id, f.defname, f.parent, f.depth, {},
                                    SUMMARIZED)
    with pytest.raises(StructuralError):
        expand(inst, 1)


def test_elaboration_deterministic():
    def fingerprint():
        program = parse(FACT)
        inst = instantiate(program, "fact", {"n": 7})
        demand_loop(inst, [inst.cell_of(0, "r")], 100, 100_000)
        return (
            len(inst.network.contents),
            tuple((p.kind, p.cells) for p in inst.network.propagators),
            tuple((f.defname, f.parent, f.depth, f.state) for f in inst.frames),
            tuple(entry[:3] for entry in inst.dormant),
        )

    assert fingerprint() == fingerprint()


def test_int_decl_is_a_plain_write():
    program = parse("(def (t x) (int x 0 9))")
    inst = instantiate(program, "t")
    x = inst.cell_of(0, "x")
    assert inst.network.content(x) == int_interval(0, 9)
    inst.network.write(x, exact(12), "user:conflict")
    prov = inst.network.content(x).provenance
    assert "decl:0:x" in prov
    assert "user:conflict" in prov


def test_choose_records_choice_point():
    program = parse("(def (pick x y) (choose x 1 2 3) (sum x x y))")
    inst = instantiate(program, "pick")
    assert len(inst.choices) == 1
    cp = inst.choices[0]
    assert inst.network.content(cp.cell) == finite_domain((1, 2, 3))
    assert cp.frame == 0
    inst.network.run_to_quiescence()
    assert inst.network.content(cp.cell).kind == "finite_domain"


def test_gated_int_decl_waits_for_gate():
    text = """
    (def (g c x)
      (if c ((int x 0 4)) ((int x 10 14))))
    """
    program = parse(text)
    inst = instantiate(program, "g")
    x = inst.cell_of(0, "x")  # declared by the if, written by neither branch
    settle(inst)
    assert inst.network.content(x) == NOTHING
    assert len(inst.dormant) == 2
    inst.network.write(inst.cell_of(0, "c"), exact(0))
    settle(inst)  # the else branch opens, the then branch is dropped
    assert inst.network.content(x) == int_interval(10, 14)
    assert inst.network.contributors[x] == ("decl:0:x", None)
    assert inst.dormant == []


def test_clone_isolates_instances():
    # a clone shares the original's frames; expanding or folding one puts
    # a new frame in the clone's own list, so the original's stay as they
    # were
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 4})
    settle(inst)  # n = 4 opens the branch holding the call
    twin = inst.clone()
    assert all(a is b for a, b in zip(twin.frames, inst.frames, strict=True))
    before = [(f.state, dict(f.cellmap)) for f in inst.frames]
    demand_loop(twin, [twin.cell_of(0, "r")], 100, 100_000)
    assert twin.network.content(twin.cell_of(0, "r")) == exact(24)
    assert collect_garbage(twin).summarized == (1, 2, 3, 4)
    assert inst.network.content(inst.cell_of(0, "r")) == NOTHING
    assert [(f.state, f.cellmap) for f in inst.frames] == before
    assert [state for state, _ in before] == [EXPANDED, UNEXPANDED]
    assert inst.unexpanded == [1] and inst.dormant == []
    assert len(twin.frames) == 5 and twin.dormant == []
    assert twin.expansions == 4 and inst.expansions == 0


def test_targets_met_with_precision():
    program = parse("(def (t x) (int x 3 5))")
    inst = instantiate(program, "t")
    x = inst.cell_of(0, "x")
    assert not targets_met(inst, [x], 1)
    assert targets_met(inst, [x], 2)


def test_mutual_recursion_parses_and_runs():
    text = """
    (def (even n out)
      (cell nm1)
      (const one 1)
      (sum nm1 one n)
      (if n ((call odd nm1 out)) ((const out 1))))
    (def (odd n out)
      (cell nm1)
      (const one 1)
      (sum nm1 one n)
      (if n ((call even nm1 out)) ((const out 0))))
    """
    program = parse(text)
    inst = instantiate(program, "even", {"n": 5})
    out = inst.cell_of(0, "out")
    report = demand_loop(inst, [out], 50, 100_000)
    assert inst.network.content(out) == exact(0)
    assert report.expansions == 5


def nested_ifs(depth):
    """A definition whose body nests `depth` ifs on x, innermost (const y 1)."""
    body = "(const y 1)"
    for _ in range(depth):
        body = f"(if x ({body}) ())"
    return f"(def (f x y)\n{body})\n"


def test_if_nesting_up_to_the_limit_parses():
    program = parse(nested_ifs(MAX_IF_NESTING))
    inst = instantiate(program, "f", {"x": 1})
    settle(inst)
    assert inst.network.content(inst.cell_of(0, "y")) == exact(1)
    assert inst.dormant == []


def test_if_nesting_past_the_limit_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        parse(nested_ifs(MAX_IF_NESTING + 1))
    # the innermost if starts one "(if x (" further in per level
    assert (e.value.line, e.value.col) == (2, 1 + 7 * MAX_IF_NESTING)


def test_unterminated_list_reports_the_innermost_open_paren():
    with pytest.raises(ParseError) as e:
        parse("(def (f x)\n  (sum x x")
    assert "unterminated" in str(e.value)
    assert (e.value.line, e.value.col) == (2, 3)


def test_countdown_structure_is_linear():
    # exact counters, no wall time: a frame opens only once demand reaches
    # it and a branch only once its condition holds, and a call passes its
    # argument cells themselves, so each of the 1025 frames costs 2 cells
    # and 2 propagators, len(0) only its own sum; the root's two parameters
    # and the one cell every frame's `one` names are the only other cells
    program = parse(COUNTDOWN)
    inst = instantiate(program, "len", {"n": 1024})
    report = demand_loop(inst, [inst.cell_of(0, "k")], 2000, 1_000_000)
    assert inst.network.content(inst.cell_of(0, "k")) == exact(1024)
    assert report.expansions == 1024
    kinds = [p.kind for p in inst.network.propagators]
    assert len(kinds) == 2049
    assert kinds.count("sum") == 2049 and kinds.count("equal") == 0
    assert len(inst.network.contents) == 2 * (1 + 1024) + 2 + 1 == 2053
    assert not any(name.startswith("(if") for _, name in inst.network.origins)
    # no propagator watches an exact cell: not `one`, and not a frame's `n`,
    # which its parent has pinned before the frame expands. So the root's
    # two sums watch 2 cells each, every other frame's `nm1 = n - 1`
    # watches only nm1, and the 1023 `k = krest + 1` watch 2
    watchers = sum(len(w) for w in inst.network.watchers)
    assert watchers == 2 + 2 + 1024 + 2 * 1023 == 3074


CHAIN = ("(def (chain n lo hi) (cell nm1) (cell mid) (const one 1)"
         " (sum nm1 one n) (lesseq lo hi)"
         " (if n ((call chain nm1 mid hi) (sum lo one mid)) ()))")


@pytest.mark.parametrize("depth", [1000, 4000])
def test_a_cell_exact_before_a_frame_expands_gains_no_watcher(depth):
    # `hi` is read by every frame's `lesseq`, but only the root's attaches
    # before the binding makes it exact, so its watcher tuple stays one id
    # long and attaching stays linear in depth
    program = parse(CHAIN)
    inst = instantiate(program, "chain", {"n": depth, "lo": 0, "hi": 10**9})
    settle(inst)
    while inst.unexpanded:
        expand(inst, inst.unexpanded[0])
        settle(inst)
    assert inst.expansions == depth
    assert inst.network.watchers[inst.cell_of(0, "hi")] == (1,)


def test_unexpanded_worklist_tracks_frames():
    program = parse(FACT)
    inst = instantiate(program, "fact", {"n": 2})
    assert inst.unexpanded == []
    settle(inst)
    assert inst.unexpanded == [1]
    twin = inst.clone()
    expand(inst, 1)
    settle(inst)
    assert inst.unexpanded == [2]
    assert twin.unexpanded == [1]
    demand_loop(inst, [inst.cell_of(0, "r")], 100, 100_000)
    assert inst.network.content(inst.cell_of(0, "r")) == exact(2)
    # fact(0) refutes its call's branch, so no frame is left to expand
    assert [f.state for f in inst.frames] == [EXPANDED] * 3
    assert inst.unexpanded == []


@pytest.mark.parametrize("n", [1, 32, 1024])
def test_each_body_compiles_one_plan_whatever_the_depth(n, monkeypatch):
    # parse compiles the definition body and both branches of its `if`, once
    # each; solving at any depth runs those plans and compiles nothing
    compiled = []
    compile_plan = language._compile

    def counted(*args):
        plan = compile_plan(*args)
        compiled.append(plan)
        return plan

    monkeypatch.setattr(language, "_compile", counted)
    program = parse(COUNTDOWN)
    plan = program.definitions["len"].plan
    (_, then_plan, _, _), (_, else_plan, _, _) = plan[-1][2]
    assert [id(p) for p in compiled] == [id(then_plan), id(else_plan),
                                         id(plan)]
    compiled.clear()
    inst = instantiate(program, "len", {"n": n})
    report = demand_loop(inst, [inst.cell_of(0, "k")], 2000, 1_000_000)
    assert inst.network.content(inst.cell_of(0, "k")) == exact(n)
    assert report.expansions == n
    assert compiled == []


def test_instances_of_one_program_build_identical_networks():
    # both instances run the plans parse compiled
    program = parse(FACT)
    nets = []
    for _ in range(2):
        inst = instantiate(program, "fact", {"n": 6})
        demand_loop(inst, [inst.cell_of(0, "r")], 100, 100_000)
        assert inst.network.content(inst.cell_of(0, "r")) == exact(720)
        nets.append(inst.network)
    first, second = nets
    for attr in ("contents", "origins", "watchers", "contributors"):
        assert getattr(first, attr) == getattr(second, attr), attr
    assert ([(p.kind, p.cells) for p in first.propagators]
            == [(p.kind, p.cells) for p in second.propagators])


def test_a_solved_program_is_freed_with_its_plans():
    program = parse(FACT + "(query (fact (n 5)) (show r))")
    result = solve(program, program.query)
    assert [s["cells"]["r"] for s in result.solutions] == [120]
    # plans live on their definitions (a tuple cannot be weakly referenced),
    # so nothing a solve leaves behind may hold a definition past its program
    refs = [weakref.ref(x) for x in (program, program.definitions["fact"])]
    del program, result
    gc.collect()
    assert [ref() for ref in refs] == [None] * 2
