"""Transfers drop the writes that cannot refine their target, and only those.

A dropped write must be one that `merge` would hand back unchanged; a kept
one must be exactly the value the unfiltered transfer builds. The value a
transfer would build for a cell never reads that cell's own content, so it
is recovered by running the transfer again with the cell emptied: an empty
cell holds no bounds, so nothing is dropped for it.
"""

from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fifth.language import parse
from fifth.lattice import (
    INT_LIMIT,
    NOTHING,
    Contradiction,
    exact,
    finite_domain,
    int_interval,
    merge,
)
from fifth.network import (
    _TRANSFER,
    Network,
    Propagator,
    WriteResult,
    _div_hull,
    _ext_div,
    _ext_mul,
    _mul_hull,
    _range_write,
)
from fifth.rng import SplitMix64
from fifth.search import optimize, solve
from fifth.selftest import random_network

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

INF = float("inf")
# what the store can hold: integers strictly within ±2^62, the last ones
# before the limit, and integers binary64 cannot all hold
INTS = st.integers(-12, 12) | st.sampled_from([
    1 - INT_LIMIT, INT_LIMIT - 1, 2**53 - 1, 2**53 + 1, -2**53 - 1])
# what a transfer can compute: also ends at and past the limit, and open ends
PAST_INTS = st.sampled_from([
    -2**70, -INT_LIMIT - 1, -INT_LIMIT, INT_LIMIT, INT_LIMIT + 1, 2**70])


def _sorted_pair(values):
    return st.tuples(values, values).map(sorted)


CONTENTS = st.one_of(
    st.just(NOTHING),
    INTS.map(exact),
    # an interval end may be open; sorting keeps -inf low and +inf high
    st.tuples(INTS | st.just(-INF), INTS | st.just(INF)).map(
        lambda r: int_interval(*sorted(r))),
    st.lists(INTS, min_size=1, max_size=4).map(finite_domain),
)
BOUNDS = INTS | PAST_INTS | st.sampled_from([-INF, INF])


def _unchanged(cur, info):
    merged = merge(cur, info)
    return merged is cur or merged == cur


@settings(max_examples=400, deadline=None)
@given(CONTENTS, _sorted_pair(BOUNDS))
# one example per branch of the no-op test on the target's kind
@example(exact(3), [0, 5])
@example(exact(7), [0, 5])
@example(exact(2**53 + 1), [2**53, 2**53 + 1])
@example(exact(INT_LIMIT - 1), [0, INT_LIMIT])
@example(exact(1 - INT_LIMIT), [-INF, 0])
@example(int_interval(0, INF), [-2**70, 2**70])
# widened: an end at or past the limit is written open
@example(NOTHING, [0, INT_LIMIT])
@example(int_interval(-INF, 5), [-INT_LIMIT - 1, 9])
# overflow: a range wholly at or past the limit
@example(exact(INT_LIMIT - 1), [INT_LIMIT, 2**70])
@example(NOTHING, [-INF, -INT_LIMIT])
@example(finite_domain([1, 3]), [0, 5])
@example(finite_domain([1, 3]), [2, 5])
@example(int_interval(1, 2), [0, 5])
@example(int_interval(1, 2), [2, 5])
@example(NOTHING, [0, 5])
def test_range_write_drops_only_what_merge_keeps(cur, bounds):
    net, empty = Network(), Network()
    net.contents.append(cur)
    empty.contents.append(NOTHING)
    built = _range_write(empty, 0, *bounds)
    got = _range_write(net, 0, *bounds)
    if got is None:
        assert _unchanged(cur, built)
    else:
        assert got == built


@pytest.mark.parametrize("bounds,written", [
    # widened: only information is lost
    ((0, INT_LIMIT), int_interval(0, INF)),
    ((-2**70, INT_LIMIT - 1), int_interval(-INF, INT_LIMIT - 1)),
    ((-INT_LIMIT, INT_LIMIT), int_interval(-INF, INF)),
    ((INT_LIMIT - 1, INT_LIMIT + 1), int_interval(INT_LIMIT - 1, INF)),
    # wholly past the limit: an overflow, which search counts as a cut
    ((INT_LIMIT, INT_LIMIT), Contradiction(["overflow"])),
    ((INT_LIMIT + 1, INF), Contradiction(["overflow"])),
    ((-INF, -INT_LIMIT), Contradiction(["overflow"])),
    ((2**70, 2**70), Contradiction(["overflow"])),
    # empty, however large: a refutation, not an overflow
    ((INT_LIMIT + 1, INT_LIMIT), Contradiction()),
])
def test_range_write_widens_past_the_limit_or_overflows(bounds, written):
    net = Network()
    net.contents.append(NOTHING)
    assert _range_write(net, 0, *bounds) == written


ARITY = {"sum": 3, "product": 3, "less_equal": 2, "equal": 2}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(ARITY)), st.lists(CONTENTS, min_size=3,
                                                 max_size=3))
def test_transfers_drop_only_what_merge_keeps(kind, contents):
    net = Network()
    cells = tuple(range(ARITY[kind]))
    net.contents.extend(contents[:len(cells)])
    prop = Propagator(0, kind, cells)
    transfer = _TRANSFER[kind]
    emitted = transfer(net, prop)
    for cid in cells:
        empty = net.clone()
        empty.contents[cid] = NOTHING
        built = [info for c, info in transfer(empty, prop) if c == cid]
        got = [info for c, info in emitted if c == cid]
        if got:
            assert got == built
        else:
            assert all(_unchanged(net.contents[cid], info) for info in built)


# the ends a transfer reads: strictly within ±2^62, or open
HULL_ENDS = (st.integers(-12, 12) | st.sampled_from([
    0, 1, -1, 2**53 - 1, 2**53 + 1, 1 - 2**53, -2**53 - 1, INT_LIMIT - 1,
    1 - INT_LIMIT, -INF, INF]))
RANGES = _sorted_pair(HULL_ENDS).map(tuple)


@settings(max_examples=1500, deadline=None)
@given(RANGES, RANGES)
@example((2, 5), (3, 3))
@example((2, 5), (-3, -3))
@example((-7, 2**53 + 1), (-2, -1))
@example((0, INF), (INT_LIMIT - 1, INT_LIMIT - 1))
def test_product_hulls_equal_their_corner_formulas(r1, r2):
    """The integer paths of `_mul_hull` and `_div_hull` are the corner
    formulas, computed without the extended arithmetic."""
    products = [_ext_mul(x, y) for x in r1 for y in r2]
    got = _mul_hull(r1, r2)
    assert got == (min(products), max(products))
    assert list(map(type, got)) == [type(min(products)), type(max(products))]
    if not r2[0] <= 0 <= r2[1]:  # a quotient hull needs a divisor without 0
        corners = [(n, d) for n in r1 for d in r2]
        lo = min(_ext_div(n, d, True) for n, d in corners)
        hi = max(_ext_div(n, d, False) for n, d in corners)
        got = _div_hull(r1, r2)
        assert got == (lo, hi)
        assert list(map(type, got)) == [type(lo), type(hi)]


def _alldifferent_reference(contents, cells):
    """The writes of an alldifferent over `cells`, from its spec: each
    exact value is removed from the finite domains and shaved off the
    integer interval endpoints of the other cells (an interval shaved to
    ±2^62 overflows), and an equal exact value contradicts at the later of
    the two cells."""
    writes = []
    for i, j in permutations(range(len(cells)), 2):
        ci, cj = cells[i], cells[j]
        mine, other = contents[ci], contents[cj]
        if mine.kind != "exact":
            continue
        v = mine.value
        if other.kind == "exact" and other.value == v and cj > ci:
            writes.append((cj, Contradiction()))
        elif other.kind == "finite_domain" and v in other.elements:
            writes.append((cj, finite_domain(set(other.elements) - {v})))
        elif other.kind == "int_interval" and v in (other.lo, other.hi):
            lo, hi = other.lo + (v == other.lo), other.hi - (v == other.hi)
            writes.append((cj, Contradiction(["overflow"])
                           if lo >= INT_LIMIT or hi <= -INT_LIMIT
                           else int_interval(lo, hi)))
    return writes


@settings(max_examples=600, deadline=None)
@given(st.lists(CONTENTS, min_size=1, max_size=4).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=2,
                                 max_size=4)).flatmap(
           lambda contents: st.tuples(st.just(contents),
                                      st.permutations(range(len(contents))))))
# an end shaved to the limit
@example(([exact(INT_LIMIT - 1), int_interval(INT_LIMIT - 1, INF)], [0, 1]))
@example(([int_interval(-INF, 1 - INT_LIMIT), exact(1 - INT_LIMIT)], [0, 1]))
def test_alldifferent_writes_what_its_spec_says(drawn):
    """Contents drawn from a small pool, so equal values repeat."""
    contents, cells = drawn
    net = Network()
    net.contents.extend(contents)
    prop = Propagator(0, "alldifferent", cells)
    assert _TRANSFER["alldifferent"](net, prop) == _alldifferent_reference(
        contents, cells)


CELLS = st.permutations(range(3)) | st.lists(st.integers(0, 2), min_size=3,
                                             max_size=3)


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(sorted(ARITY) + ["alldifferent"]),
       st.lists(CONTENTS, min_size=3, max_size=3), CELLS)
# sums and quotients past 2^53 that binary64 would round
@example("sum", [exact(2**53 + 1), int_interval(1, 2**53 + 1), NOTHING],
         (0, 1, 2))
@example("product", [NOTHING, exact(3), int_interval(2**53 + 1, 2**53 + 5)],
         (0, 1, 2))
# a sum into an empty cell sleeps, also when its write is widened at the
# limit, or overflows
@example("sum", [exact(INT_LIMIT - 1), int_interval(0, 1), NOTHING],
         (0, 1, 2))
@example("sum", [exact(1 - INT_LIMIT), int_interval(-1, 0), NOTHING],
         (0, 1, 2))
@example("sum", [exact(INT_LIMIT - 1), exact(1), NOTHING], (0, 1, 2))
@example("sum", [NOTHING, exact(1 - INT_LIMIT), int_interval(0, INF)],
         (0, 1, 2))
def test_a_propagator_left_asleep_by_its_own_writes_has_nothing_left(
        kind, contents, cells):
    """Run a transfer once and apply its writes as the kernel does; if that
    leaves the propagator unqueued, running it again must change nothing."""
    cells = tuple(cells[:ARITY.get(kind, 3)])
    net = Network()
    for info in contents:
        net.contents[net.add_cell()] = info
    pid = net.attach(kind, cells)
    net.queue.clear()
    net.pending.clear()
    prop = net.propagators[pid]
    for cid, info in _TRANSFER[kind](net, prop):
        if net.write(cid, info, pid) is WriteResult.CONTRADICTION:
            return
    if pid not in net.pending:
        assert _TRANSFER[kind](net, prop) == []


class _QuiescedNodes:
    """At every quiesced node, no live propagator has a write left to make."""

    def __init__(self):
        self.checked = 0

    def node(self, inst):
        net = inst.network
        if net.contradiction is not None or not net.quiescent:
            return
        for prop in net.propagators:
            assert _TRANSFER[prop.kind](net, prop) == [], prop
        self.checked += 1

    def solution(self, inst):
        pass

    def deadend(self, inst):
        pass


@pytest.mark.parametrize("name", [
    "queens/q8.5th", "jobshop/js-3x3-a.5th", "horizon/line-h4.5th",
    "crypt/sendmore.5th", "fact/fact10.5th", "queens/q6.5th",
    "csp/eval/eval-00.5th", "queens/q5.5th",
])
def test_quiesced_nodes_have_no_writes_left(name):
    program = parse((CORPUS / name).read_text())
    query = program.query
    nodes = _QuiescedNodes()
    (optimize if query.minimize else solve)(program, query, trace=nodes)
    assert nodes.checked > 0


def _domain_event(rec):
    """None for a trace record that is not a domain event, else whether
    both ends of the domain stayed."""
    old, new = rec["old"], rec["new"]
    if old[0] != "{" or new[0] != "{":
        return None
    old, new = old[1:-1].split(","), new[1:-1].split(",")
    return (old[0], old[-1]) == (new[0], new[-1])


def test_random_networks_quiesce_with_no_writes_left():
    """Writes wake only the propagators that can act on them, so once a
    random network from the self-check quiesces without a contradiction,
    every propagator, woken or skipped, has nothing left to write."""
    checked, events = 0, Counter()
    for seed in range(500):
        net, writes = random_network(SplitMix64(seed))
        for cid, info in writes:
            net.write(cid, info, f"init:{cid}")
        seen = []
        net.trace_sink = lambda rec: seen.append(_domain_event(rec))
        if not net.run_to_quiescence(20_000).quiescent:
            continue
        for prop in net.propagators:
            assert _TRANSFER[prop.kind](net, prop) == [], (seed, prop)
        checked += 1
        events.update(seen)
    # both domain events come up: ends that stay, and an end that moves
    assert checked > 250 and events[True] > 10 and events[False] > 100
