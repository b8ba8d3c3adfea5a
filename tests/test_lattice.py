import math

import pytest
from hypothesis import given, settings, strategies as st

from fifth.lattice import (
    INT_LIMIT,
    NOTHING,
    Contradiction,
    Exact,
    FiniteDomain,
    IntInterval,
    bounds_of,
    contradiction,
    exact,
    finite_domain,
    info_bits,
    int_interval,
    merge,
    refines,
    render,
    truth_value,
    width_of,
)


def test_merge_interval_intersection():
    assert merge(int_interval(0, 10), int_interval(5, 20)) == IntInterval(5, 10)


def test_merge_nothing_is_identity():
    d = finite_domain({2, 3})
    assert merge(NOTHING, d) == d
    assert merge(d, NOTHING) == d


def test_merge_incompatible_exacts_is_contradiction():
    assert merge(exact(3), exact(4)).kind == "contradiction"


def test_merge_domains_singleton_normalizes():
    assert merge(finite_domain({1, 2, 3}), finite_domain({3, 4})) == Exact(3)


def test_merge_empty_intersection_contradicts():
    assert merge(finite_domain({1, 2}), finite_domain({3, 4})).kind == "contradiction"
    assert merge(int_interval(0, 3), int_interval(5, 9)).kind == "contradiction"


def test_merge_exact_against_interval_and_domain():
    assert merge(exact(7), int_interval(0, 9)) == Exact(7)
    assert merge(exact(12), int_interval(0, 9)).kind == "contradiction"
    assert merge(exact(2), finite_domain({1, 2, 3})) == Exact(2)
    assert merge(exact(5), finite_domain({1, 2, 3})).kind == "contradiction"


def test_merge_domain_against_intervals():
    assert merge(finite_domain({1, 5, 9}), int_interval(2, 9)) == FiniteDomain((5, 9))
    assert merge(int_interval(4, 6), finite_domain({1, 5, 9})) == Exact(5)


# the first integer binary64 cannot hold, and the literal limit
BIG = 2**53 + 1
TOP = 2**62 - 1


def test_exact_holds_integers_only():
    assert exact(BIG).value == BIG
    for value in (2.5, 3.0, float("nan")):
        with pytest.raises(ValueError):
            exact(value)
    with pytest.raises(ValueError):
        finite_domain({1, 2.0})


def test_merge_keeps_integers_past_binary64_exact():
    assert merge(exact(BIG), exact(BIG - 1)).kind == "contradiction"
    assert merge(exact(BIG), int_interval(-TOP, BIG - 1)).kind == "contradiction"
    assert merge(int_interval(BIG - 1, TOP), int_interval(-TOP, BIG)) \
        == IntInterval(BIG - 1, BIG)
    assert merge(int_interval(BIG, TOP), finite_domain({BIG - 1, BIG})) \
        == Exact(BIG)


@pytest.mark.parametrize("a, b", [
    (exact(3), exact(3)),
    (exact(BIG), exact(BIG)),
    (exact(3), int_interval(0, 9)),
    (int_interval(2, 5), int_interval(0, 9)),
    (int_interval(2, 5), int_interval(2, 5)),
    (finite_domain({1, 4}), int_interval(1, 4)),
    (exact(BIG), int_interval(-TOP, TOP)),
    (exact(4), finite_domain({1, 4, 7})),
])
def test_merge_that_cannot_refine_returns_its_first_argument(a, b):
    assert merge(a, b) is a


@pytest.mark.parametrize("a, b", [
    (NOTHING, exact(3)),
    (NOTHING, int_interval(0, 9)),
    (NOTHING, contradiction(("w1",))),
    (finite_domain({1, 4, 7}), exact(4)),
    (int_interval(0, 9), exact(9)),
    (int_interval(-TOP, TOP), exact(BIG)),
    (int_interval(0, 9), int_interval(2, 5)),
    (int_interval(0, 9), int_interval(0, 5)),
])
def test_merge_that_already_is_the_join_returns_its_second_argument(a, b):
    assert merge(a, b) is b


def test_contradiction_provenance_union():
    c = merge(contradiction(("w1",)), contradiction(("w2",)))
    assert c.provenance == ("w1", "w2")
    assert merge(c, exact(5)) == c


def test_normalization_canonical():
    assert int_interval(4, 4) == Exact(4)
    assert int_interval(BIG, BIG) == Exact(BIG)
    assert finite_domain({8}) == Exact(8)
    assert finite_domain(set()).kind == "contradiction"
    assert int_interval(5, 2).kind == "contradiction"


def test_refines_examples():
    assert refines(NOTHING, exact(7))
    assert refines(int_interval(0, 5), int_interval(2, 3))
    assert not refines(exact(7), NOTHING)
    assert refines(exact(7), exact(7))
    assert not refines(exact(7), exact(8))
    assert refines(finite_domain({1, 2, 3}), finite_domain({1, 3}))
    assert refines(int_interval(0, 9), exact(4))
    assert refines(exact(4), contradiction(("w",)))


def test_info_bits_examples():
    assert info_bits(NOTHING, 1024) == 0.0
    assert info_bits(finite_domain(range(256)), 1024) == pytest.approx(2.0)
    assert info_bits(exact(5), 1024) == 64.0
    assert info_bits(contradiction(), 1024) == 64.0
    # clamped at both ends; an open range pins nothing
    assert info_bits(int_interval(0, 9999), 1024) == 0.0
    assert info_bits(int_interval(0, 1), 2**70) == 64.0
    assert info_bits(int_interval(0, math.inf), 1024) == 0.0
    assert info_bits(int_interval(-math.inf, math.inf), 1024) == 0.0
    with pytest.raises(ValueError):
        info_bits(NOTHING, 0)


def test_render_forms():
    assert render(NOTHING) == "⊥"
    assert render(int_interval(0, 5)) == "[0,5]"
    assert render(finite_domain({2, 1})) == "{1,2}"
    assert render(exact(3)) == "=3"
    assert render(contradiction(("a", "b"))) == "⊤(a,b)"


def test_helpers():
    assert bounds_of(exact(3)) == (3, 3)
    assert bounds_of(finite_domain({4, 1, 9})) == (1, 9)
    assert bounds_of(NOTHING) is None
    assert truth_value(exact(0)) is False
    assert truth_value(exact(6)) is True
    assert truth_value(int_interval(1, 9)) is True
    assert truth_value(int_interval(-1, 9)) is None
    assert truth_value(finite_domain({1, 2})) is True
    assert truth_value(finite_domain({0, 1})) is None
    assert truth_value(NOTHING) is None
    assert width_of(exact(2)) == 0
    assert width_of(int_interval(2, 6)) == 4
    assert width_of(int_interval(BIG, BIG + 2)) == 2
    # an open range is wider than any precision, however near the limit
    assert width_of(int_interval(INT_LIMIT - 1, math.inf)) == math.inf
    assert width_of(int_interval(-math.inf, 1 - INT_LIMIT)) == math.inf
    assert width_of(exact(INT_LIMIT - 1)) == 0
    assert width_of(NOTHING) is None


# -- law properties -----------------------------------------------------------

ints = st.integers(min_value=-50, max_value=50)
# integers binary64 cannot all hold, up to the literal limit
edges = st.sampled_from([2**53 - 1, 2**53 + 1, -2**53 - 1, TOP, -TOP])
# an interval end may be open: -inf only low, +inf only high
low_ends = edges | st.just(-math.inf)
high_ends = edges | ints | st.just(math.inf)


@st.composite
def partial_infos(draw):
    which = draw(st.integers(0, 5))
    if which == 0:
        return NOTHING
    if which == 1:
        a, b = draw(ints), draw(ints)
        return int_interval(min(a, b), max(a, b))
    if which == 2:
        a, b = draw(low_ends), draw(high_ends)
        return int_interval(min(a, b), max(a, b))
    if which == 3:
        return finite_domain(draw(st.sets(ints, min_size=1, max_size=8)))
    if which == 4:
        return exact(draw(ints))
    return contradiction(draw(st.sets(st.sampled_from("abcd"), max_size=3)))


def _same(x, y):
    # associativity is checked up to provenance-set equality
    if x.kind == "contradiction" and y.kind == "contradiction":
        return True
    return x == y


@settings(max_examples=300, deadline=None)
@given(partial_infos(), partial_infos(), partial_infos())
def test_merge_laws(a, b, c):
    assert merge(a, a) == a
    assert _same(merge(a, b), merge(b, a))
    assert _same(merge(merge(a, b), c), merge(a, merge(b, c)))
    ab = merge(a, b)
    assert refines(a, ab)
    assert refines(b, ab)


def _already_the_join(a, b):
    """Whether b is one of the joins merge(a, b) hands back as itself."""
    if a.kind == "nothing":
        return True
    if b.kind == "exact":
        if a.kind == "finite_domain":
            return b.value in a.elements
        if a.kind == "int_interval":
            return a.lo <= b.value <= a.hi
    # an equal interval is handed back as a, the first argument
    return (a.kind == b.kind == "int_interval" and a != b
            and a.lo <= b.lo and b.hi <= a.hi)


@settings(max_examples=300, deadline=None)
@given(partial_infos(), partial_infos(), ints, ints)
def test_merge_hands_back_a_second_argument_that_already_is_the_join(
        a, b, x, y):
    # besides b as drawn, values narrowed into a, so that every case the
    # fast path covers comes up often
    candidates = [b, exact(x)]
    r = bounds_of(a)
    if r is not None:
        lo, hi = r
        candidates.append(int_interval(max(lo, min(x, y)), min(hi, max(x, y))))
        if a.kind == "finite_domain":
            candidates.append(exact(a.elements[x % len(a.elements)]))
    for b in candidates:
        if _already_the_join(a, b):
            out = merge(a, b)
            assert out is b
            assert out == merge(b, a)


@settings(max_examples=300, deadline=None)
@given(partial_infos(), partial_infos())
def test_merge_results_are_canonical(a, b):
    out = merge(a, b)
    if out.kind == "int_interval":
        assert out.lo < out.hi
    elif out.kind == "finite_domain":
        assert len(out.elements) >= 2
        assert out.elements == tuple(sorted(set(out.elements)))


@settings(max_examples=200, deadline=None)
@given(partial_infos(), partial_infos())
def test_refines_agrees_with_merge(a, b):
    if refines(a, b):
        assert _same(merge(a, b), b)


def test_info_bits_monotone_under_refinement():
    pairs = [
        (NOTHING, int_interval(0, 100)),
        (int_interval(0, 100), int_interval(10, 20)),
        (finite_domain(range(16)), finite_domain(range(4))),
        (int_interval(0, 100), exact(5)),
    ]
    for weaker, stronger in pairs:
        assert refines(weaker, stronger)
        assert info_bits(weaker, 1024) <= info_bits(stronger, 1024)
    assert math.isfinite(info_bits(int_interval(-TOP, TOP), 1024))
