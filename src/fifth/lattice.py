"""Partial-information values and their join.

A cell's content is always one of the variants below, ordered by how much
they pin down the value: Nothing (no information) refines into intervals
and finite domains, which refine into Exact, and Contradiction sits on top
of everything. merge() computes the least upper bound of two values and is
the only way cell contents ever change. The same values serve as "types":
declaring a variable an integer in [0, 9] is just a write of IntInterval(0, 9).
Every value is an integer; there is no real-valued variant.

All variants are immutable; construct them through the factory functions
(int_interval, finite_domain, exact, contradiction), which normalize
degenerate cases so no non-canonical value is ever reachable.
"""

from __future__ import annotations

import math

# Every finite bound lies strictly within ±INT_LIMIT; an open end is ±inf.
INT_LIMIT = 2**62


class PartialInfo:
    """Base class; holds nothing itself."""

    __slots__ = ()
    kind = "abstract"


class Nothing(PartialInfo):
    __slots__ = ()
    kind = "nothing"

    def __repr__(self):
        return "Nothing"

    def __eq__(self, other):
        return isinstance(other, Nothing)

    def __hash__(self):
        return hash(Nothing)


NOTHING = Nothing()


class IntInterval(PartialInfo):
    """Integer-valued quantity known to lie in [lo, hi]; lo < hi always."""

    __slots__ = ("lo", "hi")
    kind = "int_interval"

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"IntInterval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return (
            isinstance(other, IntInterval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash(("ii", self.lo, self.hi))


class FiniteDomain(PartialInfo):
    """Integer drawn from an explicit set; always has at least 2 elements."""

    __slots__ = ("elements",)
    kind = "finite_domain"

    def __init__(self, elements):
        self.elements = elements  # sorted tuple of ints

    def __repr__(self):
        return f"FiniteDomain{set(self.elements)}"

    def __eq__(self, other):
        return isinstance(other, FiniteDomain) and self.elements == other.elements

    def __hash__(self):
        return hash(("fd", self.elements))


class Exact(PartialInfo):
    __slots__ = ("value",)
    kind = "exact"

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Exact({self.value})"

    def __eq__(self, other):
        return isinstance(other, Exact) and self.value == other.value

    def __hash__(self):
        return hash(("ex", self.value))


class Contradiction(PartialInfo):
    """Top element. provenance names the cell writes that conflicted."""

    __slots__ = ("provenance",)
    kind = "contradiction"

    def __init__(self, provenance=()):
        self.provenance = tuple(sorted(set(provenance)))

    def __repr__(self):
        return f"Contradiction({list(self.provenance)})"

    def __eq__(self, other):
        return (
            isinstance(other, Contradiction) and self.provenance == other.provenance
        )

    def __hash__(self):
        return hash(("ct", self.provenance))


def int_interval(lo, hi):
    """Canonical integer interval: degenerate -> Exact, empty -> Contradiction.
    An open end is -inf or +inf."""
    if lo > hi:
        return Contradiction()
    if lo == hi:
        return Exact(lo)
    return IntInterval(lo, hi)


def finite_domain(elements):
    elems = []
    for e in elements:
        if not isinstance(e, int):
            raise ValueError(f"finite domains hold integers, got {e!r}")
        elems.append(e)
    elems = tuple(sorted(set(elems)))
    if not elems:
        return Contradiction()
    if len(elems) == 1:
        return Exact(elems[0])
    return FiniteDomain(elems)


def exact(value):
    if not isinstance(value, int):
        raise ValueError(f"exact values are integers, got {value!r}")
    return Exact(value)


def contradiction(provenance=()):
    return Contradiction(provenance)


def merge(a: PartialInfo, b: PartialInfo) -> PartialInfo:
    """Least upper bound of a and b.

    Contradiction is a value, not an error: incompatible inputs produce a
    Contradiction carrying the union of any input provenance. Callers that
    know the responsible write identifiers attach them afterwards.

    When b cannot refine a, a itself is returned and nothing is allocated:
    an exact a equal to an exact b or inside an interval or finite domain
    b; an interval or finite domain inside an interval b. When b already
    is the join, b itself is returned: over Nothing; an exact b inside a's
    finite domain or interval; an interval b inside an interval a.
    """
    ka, kb = a.kind, b.kind
    if ka == "nothing":
        return b

    if kb == "exact":
        v = b.value
        if ka == "exact":
            if a.value == v:
                return a
        elif ka == "finite_domain":
            if v in a.elements:
                return b
        elif ka == "int_interval" and a.lo <= v <= a.hi:
            return b
    elif kb == "int_interval":
        if ka == "exact":
            if b.lo <= a.value <= b.hi:
                return a
        elif ka == "int_interval":
            if b.lo <= a.lo and a.hi <= b.hi:
                return a
            if a.lo <= b.lo and b.hi <= a.hi:
                return b
            return int_interval(max(a.lo, b.lo), min(a.hi, b.hi))
        elif ka == "finite_domain":
            if b.lo <= a.elements[0] and a.elements[-1] <= b.hi:
                return a
    elif kb == "finite_domain":
        if ka == "exact" and a.value in b.elements:
            return a

    if ka == "contradiction" and kb == "contradiction":
        return Contradiction(a.provenance + b.provenance)
    if ka == "contradiction":
        return a
    if kb == "contradiction":
        return b
    if kb == "nothing":
        return a
    # an exact value that fits the other side came back above
    if ka == "exact" or kb == "exact":
        return Contradiction()

    if ka == "finite_domain" and kb == "finite_domain":
        return finite_domain(set(a.elements) & set(b.elements))

    # Domain against interval: filtering the explicit set by the bounds is
    # the exact intersection, so no widening is ever needed.
    if ka != "finite_domain":
        a, b = b, a
    return finite_domain(e for e in a.elements if b.lo <= e <= b.hi)


def refines(a: PartialInfo, b: PartialInfo) -> bool:
    """True iff b carries at least as much information as a (a below b)."""
    if b.kind == "contradiction":
        return True
    return merge(a, b) == b


def info_bits(a: PartialInfo, reference_width: float) -> float:
    """How many bits of the reference width this value has pinned down.

    Intervals and domains score log2(reference / remaining measure), clamped
    to [0, 64], so an open range scores 0; Exact and Contradiction both clamp
    to 64 (Contradiction is additionally flagged downstream).
    """
    if reference_width <= 0:
        raise ValueError("reference_width must be positive")
    k = a.kind
    if k == "nothing":
        return 0.0
    if k in ("exact", "contradiction"):
        return 64.0
    if k == "int_interval":
        width = a.hi - a.lo + 1
        if width == math.inf:
            return 0.0
    else:
        width = len(a.elements)
    bits = math.log2(reference_width / width)
    return min(64.0, max(0.0, bits))


def render(a: PartialInfo) -> str:
    """Compact textual form used in traces."""
    k = a.kind
    if k == "nothing":
        return "⊥"
    if k == "int_interval":
        return f"[{a.lo},{a.hi}]"
    if k == "finite_domain":
        return "{" + ",".join(str(e) for e in a.elements) + "}"
    if k == "exact":
        return f"={a.value}"
    return "⊤(" + ",".join(a.provenance) + ")"


def bounds_of(a: PartialInfo):
    """Numeric hull (lo, hi) of the possible values, or None if unknown/dead."""
    k = a.kind
    if k == "exact":
        return (a.value, a.value)
    if k == "int_interval":
        return (a.lo, a.hi)
    if k == "finite_domain":
        return (a.elements[0], a.elements[-1])
    return None


def truth_value(a: PartialInfo):
    """Three-valued truth of a condition: a cell is true when its value is
    provably nonzero, false when it is exactly zero, undecided otherwise."""
    k = a.kind
    if k == "exact":
        return a.value != 0
    if k == "int_interval":
        if a.lo > 0 or a.hi < 0:
            return True
        return None
    if k == "finite_domain":
        if 0 not in a.elements:
            return True
        return None
    return None


def width_of(a: PartialInfo):
    """Interval width used for precision checks: inf for an open range, None
    when there are no bounds."""
    k = a.kind
    if k == "exact":
        return 0
    if k == "int_interval":
        return a.hi - a.lo
    if k == "finite_domain":
        return a.elements[-1] - a.elements[0]
    return None
