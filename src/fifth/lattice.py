"""Partial-information values and their join.

A cell's content is always one of the variants below, ordered by how much
they pin down the value: Nothing (no information) refines into intervals
and finite domains, which refine into Exact, and Contradiction sits on top
of everything. merge() computes the least upper bound of two values and is
the only way cell contents ever change. The same values serve as "types":
declaring a variable an integer in [0, 9] is just a write of IntInterval(0, 9).

All variants are immutable; construct them through the factory functions
(int_interval, real_interval, finite_domain, exact, contradiction), which
normalize degenerate cases so no non-canonical value is ever reachable.
"""

from __future__ import annotations

import math

# Interval arithmetic saturates integer bounds here instead of overflowing.
INT_SAT = 2**62
REAL_SAT = float(2**62)
# Two Exact reals closer than this merge instead of contradicting.
REAL_TOL = 1e-9


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


class RealInterval(PartialInfo):
    """Real-valued quantity in [lo, hi]; lo < hi always."""

    __slots__ = ("lo", "hi")
    kind = "real_interval"

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"RealInterval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return (
            isinstance(other, RealInterval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash(("ri", self.lo, self.hi))


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
    """Canonical integer interval: degenerate -> Exact, empty -> Contradiction."""
    lo, hi = int(lo), int(hi)
    if lo > hi:
        return Contradiction()
    if lo == hi:
        return Exact(lo)
    return IntInterval(lo, hi)


def real_interval(lo, hi):
    lo, hi = float(lo), float(hi)
    if lo > hi:
        # intervals that touch within tolerance pin the contact point
        if lo - hi <= REAL_TOL:
            return Exact(_canon_num(hi))
        return Contradiction()
    if lo == hi:
        return Exact(_canon_num(lo))
    return RealInterval(lo, hi)


def finite_domain(elements):
    elems = []
    for e in elements:
        e = _canon_num(e)
        if not isinstance(e, int):
            raise ValueError(f"finite domains hold integers, got {e!r}")
        elems.append(e)
    elems = tuple(sorted(set(elems)))
    if not elems:
        return Contradiction()
    if len(elems) == 1:
        return Exact(elems[0])
    return FiniteDomain(elems)


def _canon_num(v):
    # integral floats normalize to int so that equality, hashing and
    # integrality reads never depend on which arithmetic path produced them
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def exact(value):
    return Exact(_canon_num(value))


def contradiction(provenance=()):
    return Contradiction(provenance)


def _is_integral(v):
    return isinstance(v, int) or (isinstance(v, float) and abs(v - round(v)) <= REAL_TOL)


def _merge_exact_values(a, b):
    """Exact/Exact join: equal within float tolerance is treated as the same
    point. The representative must not depend on argument order; an integer
    representative wins over a float one."""
    if isinstance(a, int) and isinstance(b, int):
        return Exact(a) if a == b else None
    if abs(a - b) <= REAL_TOL:
        if isinstance(a, int):
            return Exact(a)
        if isinstance(b, int):
            return Exact(b)
        return exact(min(a, b))
    return None


def _exact_into(v, other):
    """Join Exact(v) with a non-exact, non-contradiction value."""
    if other.kind == "nothing":
        return exact(v)
    if other.kind == "int_interval":
        # an integer context pins a tolerably-integral float to the integer
        if _is_integral(v) and other.lo <= round(v) <= other.hi:
            return exact(round(v))
        return None
    if other.kind == "real_interval":
        if other.lo - REAL_TOL <= v <= other.hi + REAL_TOL:
            return exact(v)
        return None
    if other.kind == "finite_domain":
        if _is_integral(v) and round(v) in other.elements:
            return exact(round(v))
        return None
    raise AssertionError(other.kind)


def merge(a: PartialInfo, b: PartialInfo) -> PartialInfo:
    """Least upper bound of a and b.

    Contradiction is a value, not an error: incompatible inputs produce a
    Contradiction carrying the union of any input provenance. Callers that
    know the responsible write identifiers attach them afterwards.

    When b cannot refine a, a itself is returned and nothing is allocated:
    an exact a equal to an exact b; an integer exact, integer interval or
    finite domain inside an integer interval b; an exact or integer
    interval inside a real interval b, within REAL_TOL. When b already is
    the join, b itself is returned: over Nothing; an integer exact b inside
    a's finite domain or its integer or real hull; an integer interval b
    inside an integer interval a.
    """
    ka, kb = a.kind, b.kind
    if ka == "nothing":
        return b

    if kb == "exact":
        v = b.value
        if ka == "exact":
            if a.value == v:
                return a
        elif type(v) is int:
            if ka == "finite_domain":
                if v in a.elements:
                    return b
            elif ka != "contradiction" and a.lo <= v <= a.hi:
                return b
    elif kb == "int_interval":
        if ka == "exact":
            if isinstance(a.value, int) and b.lo <= a.value <= b.hi:
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
    elif kb == "real_interval":
        if ka == "exact":
            if b.lo - REAL_TOL <= a.value <= b.hi + REAL_TOL:
                return a
        elif ka == "int_interval":
            if b.lo - REAL_TOL <= a.lo and a.hi <= b.hi + REAL_TOL:
                return a

    if ka == "contradiction" and kb == "contradiction":
        return Contradiction(a.provenance + b.provenance)
    if ka == "contradiction":
        return a
    if kb == "contradiction":
        return b
    if kb == "nothing":
        return a

    if ka == "exact" and kb == "exact":
        out = _merge_exact_values(a.value, b.value)
        return out if out is not None else Contradiction()
    if ka == "exact":
        out = _exact_into(a.value, b)
        return out if out is not None else Contradiction()
    if kb == "exact":
        out = _exact_into(b.value, a)
        return out if out is not None else Contradiction()

    if ka == "real_interval" and kb == "real_interval":
        return real_interval(max(a.lo, b.lo), min(a.hi, b.hi))

    # Mixed interval kinds: the value must be an integer, so tighten the
    # real bounds to the integers they admit.
    if ka == "int_interval" and kb == "real_interval":
        a, b = b, a
        ka, kb = kb, ka
    if ka == "real_interval" and kb == "int_interval":
        lo = b.lo if a.lo == -math.inf else max(
            b.lo, math.ceil(a.lo - REAL_TOL))
        hi = b.hi if a.hi == math.inf else min(
            b.hi, math.floor(a.hi + REAL_TOL))
        return int_interval(lo, hi)

    if ka == "finite_domain" and kb == "finite_domain":
        return finite_domain(set(a.elements) & set(b.elements))

    # Domain against interval: filtering the explicit set by the bounds is
    # the exact intersection, so no widening is ever needed.
    if ka != "finite_domain":
        a, b = b, a
        ka, kb = kb, ka
    if kb == "int_interval":
        return finite_domain(e for e in a.elements if b.lo <= e <= b.hi)
    if kb == "real_interval":
        return finite_domain(
            e for e in a.elements if b.lo - REAL_TOL <= e <= b.hi + REAL_TOL
        )
    raise AssertionError((ka, kb))


def refines(a: PartialInfo, b: PartialInfo) -> bool:
    """True iff b carries at least as much information as a (a below b)."""
    if b.kind == "contradiction":
        return True
    return merge(a, b) == b


def info_bits(a: PartialInfo, reference_width: float) -> float:
    """How many bits of the reference width this value has pinned down.

    Intervals and domains score log2(reference / remaining measure), clamped
    to [0, 64]; Exact and Contradiction both clamp to 64 (Contradiction is
    additionally flagged downstream).
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
    elif k == "real_interval":
        width = a.hi - a.lo
    else:
        width = len(a.elements)
    bits = math.log2(reference_width / width)
    return min(64.0, max(0.0, bits))


def render(a: PartialInfo) -> str:
    """Compact textual form used in traces."""
    k = a.kind
    if k == "nothing":
        return "⊥"
    if k == "int_interval" or k == "real_interval":
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
    if k in ("int_interval", "real_interval"):
        return (a.lo, a.hi)
    if k == "finite_domain":
        return (a.elements[0], a.elements[-1])
    return None


def is_integer_valued(a: PartialInfo) -> bool:
    """True when the value is already pinned to integers."""
    k = a.kind
    if k in ("int_interval", "finite_domain"):
        return True
    if k == "exact":
        return isinstance(a.value, int)
    return False


def truth_value(a: PartialInfo):
    """Three-valued truth of a condition: a cell is true when its value is
    provably nonzero, false when it is exactly zero, undecided otherwise."""
    k = a.kind
    if k == "exact":
        return a.value != 0
    if k in ("int_interval", "real_interval"):
        if a.lo > 0 or a.hi < 0:
            return True
        return None
    if k == "finite_domain":
        if 0 not in a.elements:
            return True
        return None
    return None


def width_of(a: PartialInfo):
    """Interval width used for precision checks; None when unbounded."""
    k = a.kind
    if k == "exact":
        return 0.0
    if k in ("int_interval", "real_interval"):
        return float(a.hi - a.lo)
    if k == "finite_domain":
        return float(a.elements[-1] - a.elements[0])
    return None
