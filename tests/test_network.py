import math

import pytest

from fifth.errors import StructuralError
from fifth.language import instantiate, may_post, parse, settle
from fifth.lattice import (
    NOTHING,
    exact,
    finite_domain,
    int_interval,
    refines,
)
from fifth.network import Network, WriteResult
from fifth.rng import SplitMix64
from fifth.selftest import confluence_sample, random_partial_info


def test_add_cell_ids_dense():
    net = Network()
    assert net.add_cell() == 0
    assert net.add_cell() == 1
    assert net.content(0) == NOTHING
    assert net.content(1) == NOTHING
    assert net.quiescent


def test_many_adds():
    net = Network()
    ids = [net.add_cell() for _ in range(10_000)]
    assert ids == list(range(10_000))


def test_write_refine_then_tighten():
    net = Network()
    c = net.add_cell()
    assert net.write(c, int_interval(0, 10)) is WriteResult.REFINED
    assert net.write(c, int_interval(5, 20)) is WriteResult.REFINED
    assert net.content(c) == int_interval(5, 10)


def test_write_idempotent():
    net = Network()
    c = net.add_cell()
    net.write(c, finite_domain({1, 2}))
    s = net.add_cell()
    net.attach("equal", (c, s))
    net.run_to_quiescence()
    assert net.write(c, finite_domain({1, 2})) is WriteResult.UNCHANGED
    assert net.quiescent  # no enqueue happened


def test_write_contradiction_provenance():
    net = Network()
    c = net.add_cell()
    net.write(c, exact(1), "first")
    res = net.write(c, exact(2), "second")
    assert res is WriteResult.CONTRADICTION
    assert net.contradiction == c
    prov = net.content(c).provenance
    assert "first" in prov and "second" in prov


def test_write_unknown_cell():
    net = Network()
    with pytest.raises(StructuralError):
        net.write(7, exact(1))


def test_attach_adder_stays_silent_on_nothing():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("sum", (a, b, c))
    assert not net.quiescent  # enqueued once at attach
    net.run_to_quiescence()
    assert net.content(a) == NOTHING
    assert net.content(b) == NOTHING
    assert net.content(c) == NOTHING


def test_attach_unknown_cell():
    net = Network()
    net.add_cell()
    with pytest.raises(StructuralError):
        net.attach("sum", (0, 1, 2))
    # a negative id and a dropped cell are unknown too, and a refused
    # attach leaves no propagator and no watcher behind
    net.add_cell()
    net.drop_cell(1)
    for cells in ((0, -1, 0), (0, 1, 0)):
        with pytest.raises(StructuralError):
            net.attach("sum", cells)
    assert net.propagators == [] and net.watchers == [(), ()]


def test_pending_propagator_not_duplicated():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    pid = net.attach("sum", (a, b, c))
    net.write(a, exact(1))
    net.write(b, exact(2))
    assert list(net.queue).count(pid) == 1


def test_sum_forward():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("sum", (a, b, c))
    net.write(a, exact(2))
    net.write(b, exact(3))
    rep = net.run_to_quiescence()
    assert rep.quiescent
    assert net.content(c) == exact(5)


def test_sum_bidirectional():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("sum", (a, b, c))
    net.write(c, exact(5))
    net.write(a, exact(2))
    net.run_to_quiescence()
    assert net.content(b) == exact(3)


def test_budget_zero():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("sum", (a, b, c))
    rep = net.run_to_quiescence(step_budget=0)
    assert rep.steps_used == 0
    assert not rep.quiescent


def test_rerun_on_quiescent_is_free():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("sum", (a, b, c))
    net.write(a, exact(1))
    net.write(b, exact(1))
    net.run_to_quiescence()
    rep = net.run_to_quiescence()
    assert rep.steps_used == 0
    assert rep.quiescent


def test_product_forward_and_inverse():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("product", (a, b, c))
    net.write(a, exact(6))
    net.write(b, exact(7))
    net.run_to_quiescence()
    assert net.content(c) == exact(42)

    net2 = Network()
    a, b, c = (net2.add_cell() for _ in range(3))
    net2.attach("product", (a, b, c))
    net2.write(c, exact(42))
    net2.write(a, exact(6))
    net2.run_to_quiescence()
    assert net2.content(b) == exact(7)


def test_product_interval_sign_cases():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("product", (a, b, c))
    net.write(a, int_interval(-2, 3))
    net.write(b, int_interval(-4, 5))
    net.run_to_quiescence()
    assert net.content(c) == int_interval(-12, 15)


def test_product_division_avoided_when_divisor_spans_zero():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("product", (a, b, c))
    net.write(c, exact(12))
    net.write(b, int_interval(-2, 2))  # includes 0: no inverse write to a
    net.run_to_quiescence()
    assert net.content(a) == NOTHING


def test_product_inexact_division_contradicts():
    # no integer a has a * 2 = 7
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("product", (a, b, c))
    net.write(c, exact(7))
    net.write(b, exact(2))
    assert net.run_to_quiescence().contradiction == a


def test_product_divides_exactly_past_binary64():
    # c in [2^53 + 3, 2^53 + 5] over b = 1 leaves a three integers wide;
    # dividing through binary64 pinned it to the one 2^53 + 4
    big = 2**53
    for divisor, quotient in ((exact(1), int_interval(big + 3, big + 5)),
                              # (2^53 + 3) / 3 rounds up, (2^53 + 5) / 2 down
                              (int_interval(2, 3), int_interval(
                                  -(-(big + 3) // 3), (big + 5) // 2))):
        net = Network()
        a, b, c = (net.add_cell() for _ in range(3))
        net.attach("product", (a, b, c))
        net.write(c, int_interval(big + 3, big + 5))
        net.write(b, divisor)
        net.run_to_quiescence()
        assert net.content(a) == quotient


def test_equal_links_both_ways():
    net = Network()
    a, b = net.add_cell(), net.add_cell()
    net.attach("equal", (a, b))
    net.write(a, int_interval(0, 9))
    net.run_to_quiescence()
    assert net.content(b) == int_interval(0, 9)
    net.write(b, exact(4))
    net.run_to_quiescence()
    assert net.content(a) == exact(4)


def test_less_equal_tightens_bounds():
    net = Network()
    a, b = net.add_cell(), net.add_cell()
    net.attach("less_equal", (a, b))
    net.write(a, int_interval(3, 100))
    net.write(b, int_interval(0, 10))
    net.run_to_quiescence()
    assert net.content(a) == int_interval(3, 10)
    assert net.content(b) == int_interval(3, 10)


def test_less_equal_keeps_integers_past_binary64_exact():
    net = Network()
    a, b = net.add_cell(), net.add_cell()
    net.attach("less_equal", (a, b))
    net.write(a, exact(2**53 + 1))
    net.run_to_quiescence()
    assert net.content(b) == int_interval(2**53 + 1, math.inf)
    net.write(b, exact(2**53 + 1))
    assert net.run_to_quiescence().contradiction is None


def test_alldifferent_prunes_on_exact():
    net = Network()
    xs = [net.add_cell() for _ in range(3)]
    net.attach("alldifferent", tuple(xs))
    for x in xs:
        net.write(x, finite_domain({1, 2, 3}))
    net.write(xs[0], exact(2))
    net.run_to_quiescence()
    assert net.content(xs[1]) == finite_domain({1, 3})
    assert net.content(xs[2]) == finite_domain({1, 3})


def test_alldifferent_conflict_contradicts():
    net = Network()
    x, y = net.add_cell(), net.add_cell()
    net.attach("alldifferent", (x, y))
    net.write(x, exact(5))
    net.write(y, exact(5))
    net.run_to_quiescence()
    assert net.contradiction is not None


@pytest.mark.parametrize("repeat", [(0, 0), (0, 1, 0)])
def test_alldifferent_over_a_repeated_cell_contradicts(repeat):
    # whatever the cells hold, even nothing yet
    net = Network()
    cells = [net.add_cell() for _ in range(2)]
    pid = net.attach("alldifferent", tuple(cells[i] for i in repeat))
    net.run_to_quiescence()
    assert net.contradiction == cells[0]
    assert f"p{pid}:alldifferent" in net.content(cells[0]).provenance


def test_alldifferent_trims_interval_endpoints():
    net = Network()
    x, y = net.add_cell(), net.add_cell()
    net.attach("alldifferent", (x, y))
    net.write(x, exact(0))
    net.write(y, int_interval(0, 5))
    net.run_to_quiescence()
    assert net.content(y) == int_interval(1, 5)


# -- conditions ------------------------------------------------------------
# The kernel runs every propagator it holds; an `if` branch is attached only
# once its condition holds, so the language layer does the gating.


def test_guard_blocks_until_true():
    inst = instantiate(parse("(def (g c x) (if c ((const x 9)) ()))"), "g")
    settle(inst)
    x = inst.cell_of(0, "x")
    assert inst.network.content(x) == NOTHING
    assert inst.network.propagators == [] and len(inst.dormant) == 1
    inst.network.write(inst.cell_of(0, "c"), exact(1))
    settle(inst)
    assert inst.network.content(x) == exact(9)


def test_refuted_guard_never_fires():
    text = "(def (g c x) (if c ((const x 9) (equal x c)) ()))"
    inst = instantiate(parse(text), "g", {"c": 0})
    settle(inst)
    assert inst.network.content(inst.cell_of(0, "x")) == NOTHING
    assert inst.network.propagators == [] and inst.dormant == []


def _nested(want_outer, want_cond):
    """(const x 1) in the `want_cond` branch of `if c`, itself in the
    `want_outer` branch of `if o`."""
    def branch(cond, want, body):
        then, other = (body, "") if want else ("", body)
        return f"(if {cond} ({then}) ({other}))"
    inner = branch("c", want_cond, "(const x 1)")
    return parse(f"(def (g o c x) {branch('o', want_outer, inner)})")


@pytest.mark.parametrize("want_outer,want_cond", [
    (True, True), (True, False), (False, True), (False, False)])
def test_gate_is_the_and_of_two_polarities(want_outer, want_cond):
    truth = {True: exact(3), False: exact(0)}
    program = _nested(want_outer, want_cond)
    for v_outer in (True, False):
        for v_cond in (True, False):
            inst = instantiate(program, "g", {"o": truth[v_outer],
                                              "c": truth[v_cond]})
            settle(inst)
            holds = v_outer == want_outer and v_cond == want_cond
            x = inst.network.content(inst.cell_of(0, "x"))
            assert x == (exact(1) if holds else NOTHING)
            assert inst.dormant == []


def test_gate_refutes_on_either_input_alone():
    program = _nested(True, True)
    inst = instantiate(program, "g")
    settle(inst)
    assert may_post(inst, ("declare",)) == {0}
    for refuted in ("o", "c"):
        inst = instantiate(program, "g", {refuted: 0})
        settle(inst)
        assert may_post(inst, ("declare",)) == set()
        assert inst.network.content(inst.cell_of(0, "x")) == NOTHING


def test_gate_waits_while_the_other_input_is_undecided():
    inst = instantiate(_nested(True, False), "g", {"o": 1})
    inst.network.write(inst.cell_of(0, "c"), int_interval(-1, 1))  # may be 0
    settle(inst)
    x = inst.cell_of(0, "x")
    assert inst.network.content(x) == NOTHING
    assert len(inst.dormant) == 1  # the else branch of `if c`
    inst.network.write(inst.cell_of(0, "c"), exact(0))
    settle(inst)
    assert inst.network.content(x) == exact(1)


def test_contradiction_stops_eagerly():
    net = Network()
    a, b, c, d = (net.add_cell() for _ in range(4))
    net.attach("equal", (a, b))  # p0
    net.attach("equal", (c, d))  # p1, queued behind p0
    net.write(a, exact(1))
    net.write(b, exact(2))  # conflict, found by p0
    net.write(c, exact(7))
    rep = net.run_to_quiescence()
    assert rep.contradiction is not None
    assert net.content(d) == NOTHING  # p1 never ran
    assert not net.queue and not net.pending  # remaining work discarded


def test_overflow_is_a_contradiction_named_overflow():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("product", (a, b, c))
    net.write(a, exact(2**40))
    net.write(b, int_interval(2**30, 2**40))
    report = net.run_to_quiescence()
    # both true bounds of c lie past 2^62: the run stops there, so search
    # can tell the overflow from a refutation
    assert report.contradiction == c
    assert net.content(c).provenance == ("overflow", "p0:product")
    assert net.content(b) == int_interval(2**30, 2**40)


def test_trace_records_writes():
    net = Network()
    records = []
    net.trace_sink = records.append
    a, b, c = (net.add_cell(("f0", n)) for n in "abc")
    net.attach("sum", (a, b, c))
    net.write(a, exact(1), "init:a")
    net.write(b, exact(2), "init:b")
    net.run_to_quiescence()
    assert any(r["cell"] == c and r["new"] == "=3" for r in records)
    assert all(
        set(r) >= {"step", "cell", "origin", "old", "new", "propagator"}
        for r in records
    )
    # propagators write under their integer id; records name them
    assert [r["propagator"] for r in records] == ["init:a", "init:b", "p0:sum"]
    assert records[-1]["origin"] == "f0:c"


def test_contradiction_provenance_names_propagators():
    net = Network()
    x, w, y, z = (net.add_cell() for _ in range(4))
    net.write(x, int_interval(0, 9), "decl:0:x")
    net.write(w, exact(6), "decl:0:w")
    net.write(z, int_interval(5, 20), "decl:0:z")
    net.write(y, exact(2), "decl:0:y")
    net.attach("less_equal", (x, w))  # p0: x <= 6
    net.attach("sum", (y, x, z))  # p1: x >= 3
    assert net.run_to_quiescence().quiescent
    assert net.content(x) == int_interval(3, 6)
    assert net.write(x, exact(1), f"branch:{x}=1") is WriteResult.CONTRADICTION
    assert net.content(x).provenance == (
        "branch:0=1", "decl:0:x", "p0:less_equal", "p1:sum")


def test_contradiction_inside_propagation_names_the_writer():
    net = Network()
    x, w = (net.add_cell() for _ in range(2))
    net.write(x, int_interval(3, 9), "decl:0:x")
    net.write(w, exact(1), "decl:0:w")
    assert net.run_to_quiescence().quiescent
    net.attach("equal", (x, w))  # p0, attached once its branch opens
    report = net.run_to_quiescence()
    assert report.contradiction == x
    assert net.content(x).provenance == ("decl:0:x", "p0:equal")


def test_clone_isolates_state():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    net.attach("sum", (a, b, c))
    net.write(a, exact(1))
    twin = net.clone()
    twin.write(b, exact(2))
    twin.run_to_quiescence()
    assert twin.content(c) == exact(3)
    assert net.content(b) == NOTHING
    assert net.content(c) == NOTHING


def _store(net):
    return (list(net.contents), list(net.watchers), list(net.contributors),
            len(net.propagators))


def _busy_network():
    net = Network()
    a, b, c, d = (net.add_cell() for _ in range(4))
    net.attach("product", (a, b, c))
    net.attach("equal", (c, d))
    net.write(a, exact(2**40), "decl:0:a")
    net.write(b, int_interval(2**10, math.inf), "decl:0:b")
    net.run_to_quiescence()
    assert net.content(c) == int_interval(2**50, math.inf)
    return net


def _mutate(net):
    e, f = net.add_cell(), net.add_cell()
    net.write(0, exact(2**40), "again")  # unchanged
    net.write(e, exact(5), "decl:1:e")
    net.attach("sum", (e, e, f))
    net.drop_cell(2)
    net.run_to_quiescence()
    assert net.content(f) == exact(10)


@pytest.mark.parametrize("mutated", ("clone", "parent"))
def test_clone_shares_no_mutable_store(mutated):
    # writes, attach and drop_cell on one side leave every per-cell list
    # and set of the other side as it was
    net = _busy_network()
    twin = net.clone()
    changed, kept = (twin, net) if mutated == "clone" else (net, twin)
    before = _store(kept)
    _mutate(changed)
    assert _store(kept) == before
    assert _store(changed) != before
    assert kept.content(2) == int_interval(2**50, math.inf)
    assert 1 in kept.watchers[2] and 1 in kept.watchers[3]
    with pytest.raises(StructuralError):
        changed.content(2)


def test_watchers_ascend_and_attach_replaces_the_tuple():
    net = Network()
    a, b, c = (net.add_cell() for _ in range(3))
    for cells in ((a, b, c), (a, a), (c, a)):
        net.attach("sum" if len(cells) == 3 else "equal", cells)
    held = net.watchers[c]
    net.attach("equal", (b, c))
    assert held == (0, 2)
    assert net.watchers[a] == (0, 1, 2)
    assert net.watchers[b] == (0, 3)
    assert net.watchers[c] == (0, 2, 3)


def test_dropped_cell_is_unknown():
    net = Network()
    c = net.add_cell()
    net.drop_cell(c)
    with pytest.raises(StructuralError):
        net.content(c)
    with pytest.raises(StructuralError):
        net.write(c, exact(1))
    with pytest.raises(StructuralError):
        net.attach("equal", (c, net.add_cell()))


def test_catalog_monotone_under_refinement():
    # Refining the inputs of any catalog propagator must never loosen what
    # it writes: run each random scenario, then add information and check
    # every cell only moved up the lattice.
    rng = SplitMix64(99)
    checked = 0
    while checked < 1000:
        net, writes = _random_single_prop_net(rng)
        base = net.clone()
        for cid, info in writes:
            base.write(cid, info)
        base.run_to_quiescence(10_000)
        if base.contradiction is not None:
            continue
        before = list(base.contents)
        extra = random_partial_info(rng)
        target = rng.randint(len(base.contents))
        base.write(target, extra)
        base.run_to_quiescence(10_000)
        if base.contradiction is not None:
            checked += 1  # contradiction is the top: still monotone
            continue
        for prev, info in zip(before, base.contents):
            assert refines(prev, info)
        checked += 1


def _random_single_prop_net(rng):
    net = Network()
    n = rng.randrange(2, 6)
    cells = [net.add_cell() for _ in range(n)]
    kind = rng.choice(("sum", "product", "equal", "less_equal",
                       "alldifferent"))
    if kind in ("sum", "product"):
        net.attach(kind, tuple(rng.choice(cells) for _ in range(3)))
    elif kind in ("equal", "less_equal"):
        net.attach(kind, (rng.choice(cells), rng.choice(cells)))
    else:
        members = tuple(set(rng.choice(cells) for _ in range(3)))
        if len(members) < 2:
            members = tuple(cells[:2])
        net.attach(kind, members)
    writes = []
    for cid in cells:
        if rng.randint(2) == 0:
            writes.append((cid, random_partial_info(rng)))
    return net, writes


def test_confluence_sample_small():
    report = confluence_sample(n_networks=25, n_orders=6, seed=5)
    assert report["ok"], report
