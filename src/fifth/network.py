"""Cells, monotone propagators, and the run-to-quiescence scheduler.

A Network is a store of cells plus propagators watching them. Writing a
cell merges new partial information into its content; any actual refinement
alerts the watching propagators through a FIFO queue with a membership set,
so the queue never holds duplicates. Scheduling order is semantically
irrelevant (the catalog propagators are monotone, so the quiescent state is
confluent) but FIFO keeps runs reproducible.

Gating: a propagator may carry guard conditions (cell, polarity). One behind
a refuted guard never runs; behind an undecided guard it stays dormant until
the guard cell decides. This is what makes recursive program fragments inert
until their gate opens. The language layer gives every propagator at most
one guard: a context nested inside another gated context reads a derived
0/1 cell written by an ungated `gate` propagator (the AND of the enclosing
guard and the local condition), so dormancy costs one check and one watcher
per propagator however deep the recursion goes.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum

from fifth.errors import StructuralError
from fifth.lattice import (
    INT_SAT,
    NOTHING,
    Contradiction,
    Exact,
    bounds_of,
    exact,
    finite_domain,
    int_interval,
    is_integer_valued,
    merge,
    real_interval,
    render,
    truth_value,
)

REAL_SAT = float(INT_SAT)

PROPAGATOR_KINDS = (
    "constant",
    "element_of",
    "equal",
    "sum",
    "product",
    "less_equal",
    "alldifferent",
    "switch",
    "gate",
)


class WriteResult(Enum):
    UNCHANGED = "unchanged"
    REFINED = "refined"
    CONTRADICTION = "contradiction"


class QuiescenceReport:
    __slots__ = ("steps_used", "quiescent", "contradiction")

    def __init__(self, steps_used, quiescent, contradiction):
        self.steps_used = steps_used
        self.quiescent = quiescent
        self.contradiction = contradiction

    def __repr__(self):
        return (
            f"QuiescenceReport(steps={self.steps_used}, "
            f"quiescent={self.quiescent}, contradiction={self.contradiction})"
        )


class Cell:
    __slots__ = ("id", "content", "watchers", "origin", "contributors", "saturated")

    def __init__(self, cid, origin):
        self.id = cid
        self.content = NOTHING
        self.watchers = set()
        self.origin = origin  # (frame id, source name)
        self.contributors = ()  # write ids that refined this cell
        self.saturated = False

    def copy(self):
        c = Cell(self.id, self.origin)
        c.content = self.content  # immutable, safe to share
        c.watchers = set(self.watchers)
        c.contributors = self.contributors
        c.saturated = self.saturated
        return c


class Propagator:
    """Immutable once attached; per-branch dynamic state lives on the network."""

    __slots__ = ("id", "kind", "cells", "guards", "payload")

    def __init__(self, pid, kind, cells, guards, payload):
        self.id = pid
        self.kind = kind
        self.cells = tuple(cells)
        self.guards = tuple(guards)  # ((cell id, required polarity), ...)
        self.payload = payload

    def __repr__(self):
        return f"Propagator({self.id}, {self.kind}, cells={self.cells})"


class Network:
    def __init__(self):
        self.cells = []
        self.propagators = []
        self.queue = deque()
        self.pending = set()
        self.write_counter = 0
        self.steps_total = 0
        self.contradiction = None  # cell id
        self.detached = set()  # propagator ids dropped by storage management
        self.trace_sink = None  # callable(dict) or None

    # -- structure -------------------------------------------------------

    def add_cell(self, origin=("", "")):
        cid = len(self.cells)
        self.cells.append(Cell(cid, origin))
        return cid

    def cell(self, cid):
        if cid < 0 or cid >= len(self.cells) or self.cells[cid] is None:
            raise StructuralError(f"unknown cell id {cid}")
        return self.cells[cid]

    def content(self, cid):
        return self.cell(cid).content

    def attach(self, kind, cells, guards=(), payload=None):
        if kind not in PROPAGATOR_KINDS:
            raise StructuralError(f"unknown propagator kind {kind!r}")
        for cid in tuple(cells) + tuple(g[0] for g in guards):
            self.cell(cid)
        pid = len(self.propagators)
        prop = Propagator(pid, kind, cells, guards, payload)
        self.propagators.append(prop)
        watched = cells if kind not in ("constant", "element_of") else ()
        for cid in set(tuple(watched) + tuple(g[0] for g in guards)):
            self.cells[cid].watchers.add(pid)
        self._enqueue(pid)
        return pid

    def _enqueue(self, pid):
        if pid not in self.pending and pid not in self.detached:
            self.pending.add(pid)
            self.queue.append(pid)

    @property
    def quiescent(self):
        return not self.queue

    # -- writes ------------------------------------------------------------

    def write(self, cid, info, write_id=None):
        cell = self.cell(cid)
        if write_id is None:
            write_id = f"w{self.write_counter}"
        self.write_counter += 1
        old = cell.content
        new = merge(old, info)
        if new == old:
            return WriteResult.UNCHANGED
        if new.kind == "contradiction":
            prov = set(new.provenance) | set(cell.contributors) | {write_id}
            new = Contradiction(prov)
            cell.content = new
            self.contradiction = cid
            self._trace(cell, old, new, write_id)
            return WriteResult.CONTRADICTION
        cell.content = new
        cell.contributors = cell.contributors + (write_id,)
        for pid in cell.watchers:
            self._enqueue(pid)
        self._trace(cell, old, new, write_id)
        return WriteResult.REFINED

    def _trace(self, cell, old, new, write_id):
        if self.trace_sink is not None:
            rec = {
                "step": self.steps_total,
                "cell": cell.id,
                "origin": f"{cell.origin[0]}:{cell.origin[1]}",
                "old": render(old),
                "new": render(new),
                "propagator": write_id,
            }
            if cell.saturated:
                rec["saturated"] = True
            self.trace_sink(rec)

    # -- scheduling --------------------------------------------------------

    def run_to_quiescence(self, step_budget=None):
        """Drain the alert queue, stopping at quiescence, budget exhaustion,
        or the first contradiction (the branch is dead; queued work is
        discarded)."""
        if step_budget is not None and step_budget < 0:
            raise StructuralError("step_budget must be >= 0")
        steps = 0
        if self.contradiction is not None:
            self.queue.clear()
            self.pending.clear()
            return QuiescenceReport(0, False, self.contradiction)
        while self.queue:
            if step_budget is not None and steps >= step_budget:
                return QuiescenceReport(steps, False, None)
            pid = self.queue.popleft()
            self.pending.discard(pid)
            steps += 1
            self.steps_total += 1
            self._run_propagator(self.propagators[pid])
            if self.contradiction is not None:
                self.queue.clear()
                self.pending.clear()
                return QuiescenceReport(steps, False, self.contradiction)
        return QuiescenceReport(steps, True, None)

    def _guards_open(self, prop):
        for cid, want in prop.guards:
            tv = truth_value(self.cells[cid].content) if self.cells[cid] else None
            if tv is None or tv != want:
                return False
        return True

    def _run_propagator(self, prop):
        if prop.id in self.detached or not self._guards_open(prop):
            return
        writes = _TRANSFER[prop.kind](self, prop)
        wid = f"p{prop.id}:{prop.kind}"
        for cid, info in writes:
            result = self.write(cid, info, wid)
            if result is WriteResult.CONTRADICTION:
                return

    # -- cloning and storage management ----------------------------------

    def clone(self):
        net = Network()
        net.cells = [c.copy() if c is not None else None for c in self.cells]
        net.propagators = list(self.propagators)  # immutable, shared
        net.queue = deque(self.queue)
        net.pending = set(self.pending)
        net.write_counter = self.write_counter
        net.steps_total = self.steps_total
        net.contradiction = self.contradiction
        net.detached = set(self.detached)
        net.trace_sink = self.trace_sink
        return net

    def detach(self, pid):
        """Drop a propagator from scheduling (used by storage management)."""
        self.detached.add(pid)
        self.pending.discard(pid)
        if pid in self.queue:
            self.queue.remove(pid)
        # attach() registered the pid on these cells and nowhere else
        prop = self.propagators[pid]
        for cid in prop.cells + tuple(g[0] for g in prop.guards):
            if self.cells[cid] is not None:
                self.cells[cid].watchers.discard(pid)

    def drop_cell(self, cid):
        """Remove a cell from the store. Only storage management calls this,
        after detaching every propagator that touches the cell."""
        self.cells[cid] = None


# -- interval helpers ----------------------------------------------------------


_INF = float("inf")


def _ext_bounds(info):
    """Bounds as used by transfer arithmetic.

    An endpoint at or beyond ±2^62 may be the saturated image of something
    far larger, so it is read back as infinite: it must never be allowed to
    tighten a neighbouring cell.
    """
    r = bounds_of(info)
    if r is None:
        return None
    lo, hi = r
    if lo <= -INT_SAT:
        lo = -_INF
    if hi >= INT_SAT:
        hi = _INF
    return lo, hi


def _range_write(net, cid, lo, hi, integral):
    """Build the interval to write at cid from computed bounds."""
    if integral:
        slo = min(max(lo, -INT_SAT), INT_SAT)
        shi = max(min(hi, INT_SAT), -INT_SAT)
        if slo != lo or shi != hi:
            net.cells[cid].saturated = True
        if not isinstance(slo, int):
            slo = math.ceil(slo - 1e-9)
        if not isinstance(shi, int):
            shi = math.floor(shi + 1e-9)
        return int_interval(slo, shi)
    lo = max(float(lo), -REAL_SAT)
    hi = min(float(hi), REAL_SAT)
    return real_interval(lo, hi)


# -- transfer functions ---------------------------------------------------------
# Each takes (network, propagator) and returns a list of (cell id, info)
# candidate writes. All are monotone: refining any input can only refine
# (never loosen) the outputs.


def _t_constant(net, prop):
    return [(prop.cells[0], prop.payload)]


def _t_element_of(net, prop):
    return [(prop.cells[0], finite_domain(prop.payload))]


def _t_equal(net, prop):
    a, b = prop.cells
    writes = []
    ca, cb = net.content(a), net.content(b)
    if cb.kind != "nothing":
        writes.append((a, cb))
    if ca.kind != "nothing":
        writes.append((b, ca))
    return writes


def _t_sum(net, prop):
    a, b, c = prop.cells
    ra, rb, rc = (_ext_bounds(net.content(x)) for x in prop.cells)
    ia, ib, ic = (is_integer_valued(net.content(x)) for x in prop.cells)
    writes = []
    if ra and rb:
        writes.append((c, _range_write(net, c, ra[0] + rb[0], ra[1] + rb[1], ia and ib)))
    if rc and rb:
        writes.append((a, _range_write(net, a, rc[0] - rb[1], rc[1] - rb[0], ic and ib)))
    if rc and ra:
        writes.append((b, _range_write(net, b, rc[0] - ra[1], rc[1] - ra[0], ic and ia)))
    return writes


def _ext_mul(x, y):
    # hull-corner convention: 0 absorbs an infinite partner
    if x == 0 or y == 0:
        return 0
    return x * y


def _ext_div(n, d):
    # a corner at infinite denominator contributes nothing beyond the
    # finite-denominator corners, so it collapses to 0
    if d == _INF or d == -_INF:
        return 0.0
    return n / d


def _mul_hull(r1, r2):
    products = (
        _ext_mul(r1[0], r2[0]),
        _ext_mul(r1[0], r2[1]),
        _ext_mul(r1[1], r2[0]),
        _ext_mul(r1[1], r2[1]),
    )
    return min(products), max(products)


def _div_hull(rnum, rden):
    """Quotient hull; only valid when the denominator range excludes 0."""
    quotients = (
        _ext_div(rnum[0], rden[0]),
        _ext_div(rnum[0], rden[1]),
        _ext_div(rnum[1], rden[0]),
        _ext_div(rnum[1], rden[1]),
    )
    return min(quotients), max(quotients)


def _t_product(net, prop):
    a, b, c = prop.cells
    ca, cb, cc = (net.content(x) for x in prop.cells)
    ra, rb, rc = _ext_bounds(ca), _ext_bounds(cb), _ext_bounds(cc)
    ia, ib, ic = is_integer_valued(ca), is_integer_valued(cb), is_integer_valued(cc)
    writes = []
    if ra and rb:
        lo, hi = _mul_hull(ra, rb)
        writes.append((c, _range_write(net, c, lo, hi, ia and ib)))
    # inverse directions divide; avoided entirely when the divisor may be 0
    for out, den_info, rden, num_int, den_int in (
        (a, cb, rb, ic, ib),
        (b, ca, ra, ic, ia),
    ):
        if rc is None or rden is None or (rden[0] <= 0 <= rden[1]):
            continue
        if (
            cc.kind == "exact"
            and den_info.kind == "exact"
            and abs(cc.value) < INT_SAT
            and abs(den_info.value) < INT_SAT
        ):
            cv, dv = cc.value, den_info.value
            if isinstance(cv, int) and isinstance(dv, int) and cv % dv == 0:
                writes.append((out, exact(cv // dv)))
            else:
                writes.append((out, exact(cv / dv)))
            continue
        lo, hi = _div_hull(rc, rden)
        # quotient of integers need not be integral; only claim integrality
        # when the division is forced to land on integers
        writes.append((out, _range_write(net, out, lo, hi, False)))
    return writes


def _t_less_equal(net, prop):
    a, b = prop.cells
    ra = _ext_bounds(net.content(a))
    rb = _ext_bounds(net.content(b))
    writes = []
    # bounds are written as real intervals so no integrality is asserted on
    # cells whose own content has not established it
    if rb is not None:
        writes.append((a, real_interval(-REAL_SAT, min(float(rb[1]), REAL_SAT))))
    if ra is not None:
        writes.append((b, real_interval(max(float(ra[0]), -REAL_SAT), REAL_SAT)))
    return writes


def _t_alldifferent(net, prop):
    writes = []
    contents = [(cid, net.content(cid)) for cid in prop.cells]
    exacts = [
        (cid, info.value)
        for cid, info in contents
        if info.kind == "exact" and abs(info.value) < INT_SAT
    ]
    for ci, v in exacts:
        for cj, info in contents:
            if cj == ci:
                continue
            k = info.kind
            if k == "exact":
                if info.value == v and cj > ci:
                    writes.append((cj, Contradiction()))
            elif k == "finite_domain":
                if v in info.elements:
                    writes.append(
                        (cj, finite_domain(e for e in info.elements if e != v))
                    )
            elif k == "int_interval":
                # endpoints at the saturation limit stand in for values
                # beyond it and cannot be shaved
                if v == info.lo and abs(info.lo) < INT_SAT:
                    writes.append((cj, int_interval(info.lo + 1, info.hi)))
                elif v == info.hi and abs(info.hi) < INT_SAT:
                    writes.append((cj, int_interval(info.lo, info.hi - 1)))
    return writes


def _t_switch(net, prop):
    cond, then_c, else_c, out = prop.cells
    tv = truth_value(net.content(cond))
    if tv is None:
        return []
    chosen = then_c if tv else else_c
    writes = []
    cc, co = net.content(chosen), net.content(out)
    if cc.kind != "nothing":
        writes.append((out, cc))
    if co.kind != "nothing":
        writes.append((chosen, co))
    return writes


def _t_gate(net, prop):
    # out = 1 once outer and cond both read their wanted polarity, 0 as soon
    # as either reads the other one
    outer, cond, out = prop.cells
    want_outer, want_cond = prop.payload
    t_outer = truth_value(net.content(outer))
    t_cond = truth_value(net.content(cond))
    if t_outer == (not want_outer) or t_cond == (not want_cond):
        return [(out, exact(0))]
    if t_outer == want_outer and t_cond == want_cond:
        return [(out, exact(1))]
    return []


_TRANSFER = {
    "constant": _t_constant,
    "element_of": _t_element_of,
    "equal": _t_equal,
    "sum": _t_sum,
    "product": _t_product,
    "less_equal": _t_less_equal,
    "alldifferent": _t_alldifferent,
    "switch": _t_switch,
    "gate": _t_gate,
}
