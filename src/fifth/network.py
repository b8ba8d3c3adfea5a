"""Cells, monotone propagators, and the run-to-quiescence scheduler.

A Network is a flat store of cells plus propagators watching them. A cell
is an index into per-cell lists owned by the network:

- `contents[cid]`: the lattice value, None once storage management has
  dropped the cell;
- `watchers[cid]`: a tuple of the propagator ids that read the cell, in
  ascending id order (attach appends, the new id being the largest);
  `attach` replaces the tuple, never mutates it, and skips a cell already
  exact: it can only turn into a contradiction, which ends the run, so it
  would wake no one. A propagator stays attached for good; once storage
  management drops a cell it reads, it lies idle (see `drop_cell`);
- `origins[cid]`: (frame id, source name), used in trace records;
- `contributors[cid]`: the writes that refined the cell, as a persistent
  cons list `(write id, rest)` ending in None.

Cloning a network, which search does once per branch, is a few list and
set copies; lattice values and Propagator objects are immutable and
shared.

Writing a cell merges new partial information into its content. Transfer
functions emit only writes that can refine: each candidate is compared
with the target's current content before a lattice value is built, and
dropped when the content already lies inside its bounds, already holds its
exact value, or already lies inside the other side of an equality. Most
runs write nothing, so that "no write" is decided from raw fields: a range
write reads the target's kind once and compares the computed bounds with
its exact value, interval ends or domain ends, and `alldifferent` collects
its exact cells in one pass and returns at once when there are none. Every
finite bound is an integer strictly within ±2^62 (`INT_LIMIT`) and an open
end is ±inf, so no finite bound passes through binary64; `product`
multiplies or floor/ceil-divides four integer ends directly, and only an
infinite end takes the corner rules of `_ext_mul` and `_ext_div`.
`_range_write` alone decides how a computed bound at or past the limit is
stored: such an end is widened to ±inf, which only loses information, and
a range wholly at or past the limit is an overflow, a contradiction whose
provenance names `overflow`; search counts that node as cut, never as
refuted, since the branch may hold an answer the limit cannot show. Of what
still reaches `merge` without changing the cell (declarations, branches,
search bounds), `merge` hands back the old value itself, so it costs one
identity test; a write that already is the join (an exact value inside
the content, a narrower integer interval) comes back as itself, so no
equal copy is built. A refinement alerts the cell's watchers, in ascending id
order, through a FIFO queue with a membership set, so the queue never holds
duplicates.
Scheduling order is semantically irrelevant (the catalog propagators are
monotone, so the quiescent state is confluent) but FIFO keeps runs
reproducible.

A propagator's own refining write does not alert it again when a rerun
could write nothing (Schulte & Stuckey, TOPLAS 2008): with distinct cells,
`equal` (both sides then hold one join), `less_equal` into interval bounds
(neither direction reads the bound it moves), and `sum` writing into an
integer interval or an empty cell (integer projections of a + b = c are a
fixpoint of each other, and a widened end only loosens what a rerun
reads).

A propagator's writes carry its integer id as their write id. The name
`p{id}:{kind}` is rendered only where a person reads it: in a
contradiction's provenance and in `trace_sink` records. Other writes name
themselves with a string (`decl:...`, `branch:...`, or `w{n}` by default).

Nothing in the kernel is conditional: the language layer attaches the
statements of a frame or of an `if` branch only once it opens.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from fifth.errors import StructuralError
from fifth.lattice import (
    INT_LIMIT,
    NOTHING,
    Contradiction,
    bounds_of,
    finite_domain,
    int_interval,
    merge,
    render,
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


class Propagator:
    """Immutable once attached; per-branch state lives on the network."""

    __slots__ = ("id", "kind", "cells", "distinct")

    def __init__(self, pid, kind, cells):
        self.id = pid
        self.kind = kind
        self.cells = tuple(cells)
        self.distinct = len(set(self.cells)) == len(self.cells)

    def __repr__(self):
        return f"Propagator({self.id}, {self.kind}, cells={self.cells})"


class Network:
    __slots__ = (
        "contents", "watchers", "origins", "contributors", "propagators",
        "queue", "pending", "write_counter", "steps_total", "contradiction",
        "trace_sink",
    )

    def __init__(self):
        self.contents = []
        self.watchers = []
        self.origins = []
        self.contributors = []
        self.propagators = []
        self.queue = deque()
        self.pending = set()
        self.write_counter = 0
        self.steps_total = 0
        self.contradiction = None  # cell id
        self.trace_sink = None  # callable(dict) or None

    # -- structure -------------------------------------------------------

    def add_cell(self, origin=("", "")):
        cid = len(self.contents)
        self.contents.append(NOTHING)
        self.watchers.append(())
        self.origins.append(origin)
        self.contributors.append(None)
        return cid

    def content(self, cid):
        if 0 <= cid < len(self.contents):
            info = self.contents[cid]
            if info is not None:
                return info
        raise StructuralError(f"unknown cell id {cid}")

    def attach(self, kind, cells):
        if kind not in _TRANSFER:
            raise StructuralError(f"unknown propagator kind {kind!r}")
        prop = Propagator(len(self.propagators), kind, cells)
        contents = self.contents
        for cid in prop.cells:
            if not 0 <= cid < len(contents) or contents[cid] is None:
                raise StructuralError(f"unknown cell id {cid}")
        pid = prop.id
        self.propagators.append(prop)
        watchers = self.watchers
        for cid in prop.cells:  # a repeated cell already ends with pid
            if contents[cid].kind != "exact" and watchers[cid][-1:] != (pid,):
                watchers[cid] += (pid,)  # the largest id
        self.pending.add(pid)
        self.queue.append(pid)
        return pid

    @property
    def quiescent(self):
        return not self.queue

    # -- writes ------------------------------------------------------------

    def write(self, cid, info, write_id=None):
        """Merge `info` into cell `cid`. `write_id` names the write in
        provenance: a propagator id, or a string for any other writer."""
        contents = self.contents
        old = contents[cid] if 0 <= cid < len(contents) else None
        if old is None:
            raise StructuralError(f"unknown cell id {cid}")
        if write_id is None:
            write_id = f"w{self.write_counter}"
        self.write_counter += 1
        new = merge(old, info)
        if new is old or new == old:
            return WriteResult.UNCHANGED
        if new.kind == "contradiction":
            prov = set(new.provenance)
            prov.add(self._write_name(write_id))
            node = self.contributors[cid]
            while node is not None:
                wid, node = node
                prov.add(self._write_name(wid))
            new = Contradiction(prov)
            contents[cid] = new
            self.contradiction = cid
            if self.trace_sink is not None:
                self._trace(cid, old, new, write_id)
            return WriteResult.CONTRADICTION
        contents[cid] = new
        self.contributors[cid] = (write_id, self.contributors[cid])
        skip = write_id if type(write_id) is int and _idle_after(
            self.propagators[write_id], old) else None
        pending = self.pending
        for pid in self.watchers[cid]:
            if pid not in pending and pid != skip:
                pending.add(pid)
                self.queue.append(pid)
        if self.trace_sink is not None:
            self._trace(cid, old, new, write_id)
        return WriteResult.REFINED

    def _write_name(self, write_id):
        if type(write_id) is int:
            return f"p{write_id}:{self.propagators[write_id].kind}"
        return write_id

    def _trace(self, cid, old, new, write_id):
        frame, name = self.origins[cid]
        rec = {
            "step": self.steps_total,
            "cell": cid,
            "origin": f"{frame}:{name}",
            "old": render(old),
            "new": render(new),
            "propagator": self._write_name(write_id),
        }
        self.trace_sink(rec)

    # -- scheduling --------------------------------------------------------

    def run_to_quiescence(self, step_budget=None):
        """Drain the alert queue, stopping at quiescence, budget exhaustion,
        or the first contradiction (the branch is dead; queued work is
        discarded)."""
        if step_budget is not None and step_budget < 0:
            raise StructuralError("step_budget must be >= 0")
        queue, pending = self.queue, self.pending
        if self.contradiction is not None:
            queue.clear()
            pending.clear()
            return QuiescenceReport(0, False, self.contradiction)
        propagators = self.propagators
        write = self.write
        steps = 0
        while queue:
            if step_budget is not None and steps >= step_budget:
                return QuiescenceReport(steps, False, None)
            pid = queue.popleft()
            pending.discard(pid)
            steps += 1
            self.steps_total += 1
            prop = propagators[pid]
            for cid, info in _TRANSFER[prop.kind](self, prop):
                if write(cid, info, pid) is WriteResult.CONTRADICTION:
                    queue.clear()
                    pending.clear()
                    return QuiescenceReport(steps, False, self.contradiction)
        return QuiescenceReport(steps, True, None)

    # -- cloning and storage management ----------------------------------

    def clone(self):
        net = Network.__new__(Network)
        net.contents = self.contents[:]  # values are immutable, shared
        net.watchers = self.watchers[:]  # tuples, replaced on change
        net.origins = self.origins[:]
        net.contributors = self.contributors[:]  # persistent cons lists
        net.propagators = self.propagators[:]  # immutable, shared
        net.queue = deque(self.queue)
        net.pending = set(self.pending)
        net.write_counter = self.write_counter
        net.steps_total = self.steps_total
        net.contradiction = self.contradiction
        net.trace_sink = self.trace_sink
        return net

    def drop_cell(self, cid):
        """Remove a cell from the store; only storage management calls this.
        The propagators that read the cell stay attached, and may stay on
        the watcher tuples of other cells. That is safe while each is idle
        (not queued) and every other cell it reads is dropped too or exact:
        a dropped cell wakes no one, and a write to an exact cell either
        changes nothing or contradicts, which ends the run, so it never
        runs again. `collect_garbage` keeps this by folding a quiescent
        network's frames bottom-up, each once its boundary is exact."""
        self.contents[cid] = None
        self.watchers[cid] = ()
        self.contributors[cid] = None


def _idle_after(prop, old):
    """Whether `prop` rerun right after its own write over `old` is idle."""
    kind = prop.kind if prop.distinct else None  # repeated cells rerun
    if kind == "less_equal":
        return old.kind == "int_interval"
    if kind == "sum":
        return old.kind == "int_interval" or old.kind == "nothing"
    return kind == "equal"


# -- interval helpers ----------------------------------------------------------


_INF = float("inf")


def _range_write(net, cid, lo, hi):
    """The interval to write at cid from computed bounds, or None when the
    cell already lies inside them, so merging could not change it. An end
    at or past ±INT_LIMIT is stored open; a range wholly at or past it is
    an overflow, a contradiction naming `overflow`."""
    if not -INT_LIMIT < lo <= hi < INT_LIMIT:
        if lo > hi:
            return Contradiction()
        if lo >= INT_LIMIT or hi <= -INT_LIMIT:
            return Contradiction(("overflow",))
        if lo <= -INT_LIMIT:
            lo = -_INF
        if hi >= INT_LIMIT:
            hi = _INF
    cur = net.contents[cid]
    k = cur.kind
    if k == "exact":
        if lo <= cur.value <= hi:
            return None
    elif k == "int_interval":
        if lo <= cur.lo and cur.hi <= hi:
            return None
    elif k == "finite_domain":
        if lo <= cur.elements[0] and cur.elements[-1] <= hi:
            return None
    return int_interval(lo, hi)


def overflowed(net):
    """Whether the contradiction that stopped `net` is an overflow, which
    cuts its branch, rather than a refutation."""
    return "overflow" in net.contents[net.contradiction].provenance


# -- transfer functions ---------------------------------------------------------
# Each takes (network, propagator) and returns a list of (cell id, info)
# writes. All are monotone: refining any input can only refine (never
# loosen) the outputs. Before building a lattice value, each compares the
# candidate with the target's current content and drops it when merge
# would hand that content back unchanged.


def _inside(info, outer):
    """True when merging outer into info would hand info back unchanged."""
    ko = outer.kind
    if ko == "finite_domain":
        return info.kind == "exact" and info.value in outer.elements
    held = bounds_of(info)
    return (ko == "int_interval" and held is not None
            and outer.lo <= held[0] and held[1] <= outer.hi)


def _t_equal(net, prop):
    a, b = prop.cells
    writes = []
    ca, cb = net.contents[a], net.contents[b]
    if ca == cb:
        return writes
    if cb.kind != "nothing" and not _inside(ca, cb):
        writes.append((a, cb))
    if ca.kind != "nothing" and not _inside(cb, ca):
        writes.append((b, ca))
    return writes


def _t_sum(net, prop):
    a, b, c = prop.cells
    contents = net.contents
    ra, rb, rc = (bounds_of(contents[a]), bounds_of(contents[b]),
                  bounds_of(contents[c]))
    writes = []
    if ra and rb and (w := _range_write(
            net, c, ra[0] + rb[0], ra[1] + rb[1])):
        writes.append((c, w))
    if rc and rb and (w := _range_write(
            net, a, rc[0] - rb[1], rc[1] - rb[0])):
        writes.append((a, w))
    if rc and ra and (w := _range_write(
            net, b, rc[0] - ra[1], rc[1] - ra[0])):
        writes.append((b, w))
    return writes


def _ext_mul(x, y):
    # hull-corner convention: 0 absorbs an infinite partner
    if x == 0 or y == 0:
        return 0
    return x * y


def _ext_div(n, d, up):
    """n / d rounded up or down to an integer, exactly. A corner at an
    infinite denominator contributes nothing beyond the finite-denominator
    corners, so it collapses to 0."""
    if d == _INF or d == -_INF:
        return 0
    if n == _INF or n == -_INF:
        return n if d > 0 else -n
    return -(-n // d) if up else n // d


def _mul_hull(r1, r2):
    (a, b), (c, d) = r1, r2
    if type(a) is type(b) is type(c) is type(d) is int:
        products = (a * c, a * d, b * c, b * d)
    else:
        products = (_ext_mul(a, c), _ext_mul(a, d), _ext_mul(b, c),
                    _ext_mul(b, d))
    return min(products), max(products)


def _div_hull(rnum, rden):
    """The integers of the quotient hull, empty when no integer divides;
    only valid when the denominator range excludes 0."""
    (n0, n1), (d0, d1) = rnum, rden
    if type(n0) is type(n1) is type(d0) is type(d1) is int:
        return (-max(-n0 // d0, -n0 // d1, -n1 // d0, -n1 // d1),
                max(n0 // d0, n0 // d1, n1 // d0, n1 // d1))
    corners = [(n, d) for n in rnum for d in rden]
    return (min(_ext_div(n, d, True) for n, d in corners),
            max(_ext_div(n, d, False) for n, d in corners))


def _t_product(net, prop):
    a, b, c = prop.cells
    contents = net.contents
    ra, rb, rc = (bounds_of(contents[a]), bounds_of(contents[b]),
                  bounds_of(contents[c]))
    writes = []
    if ra and rb and (w := _range_write(net, c, *_mul_hull(ra, rb))):
        writes.append((c, w))
    # inverse directions divide; avoided entirely when the divisor may be 0
    for out, rden in ((a, rb), (b, ra)):
        if rc and rden and not rden[0] <= 0 <= rden[1] and (
                w := _range_write(net, out, *_div_hull(rc, rden))):
            writes.append((out, w))
    return writes


def _t_less_equal(net, prop):
    a, b = prop.cells
    ra = bounds_of(net.contents[a])
    rb = bounds_of(net.contents[b])
    writes = []
    if rb is not None and (w := _range_write(net, a, -_INF, rb[1])):
        writes.append((a, w))
    if ra is not None and (w := _range_write(net, b, ra[0], _INF)):
        writes.append((b, w))
    return writes


def _t_alldifferent(net, prop):
    if not prop.distinct:  # a repeated cell cannot differ from itself
        return [(max(prop.cells, key=prop.cells.count), Contradiction())]
    contents = net.contents
    exacts = [
        (cid, info.value)
        for cid in prop.cells
        if (info := contents[cid]).kind == "exact"
    ]
    if not exacts:
        return []
    writes = []
    for ci, v in exacts:
        for cj in prop.cells:
            if cj == ci:
                continue
            info = contents[cj]
            k = info.kind
            if k == "exact":
                if info.value == v and cj > ci:
                    writes.append((cj, Contradiction()))
            elif k == "finite_domain":
                if v in info.elements:
                    writes.append(
                        (cj, finite_domain(e for e in info.elements if e != v))
                    )
            elif k == "int_interval":  # a shaved end may reach the limit
                if v == info.lo:
                    writes.append((cj, _range_write(net, cj, v + 1, info.hi)))
                elif v == info.hi:
                    writes.append((cj, _range_write(net, cj, info.lo, v - 1)))
    return writes


_TRANSFER = {
    "equal": _t_equal,
    "sum": _t_sum,
    "product": _t_product,
    "less_equal": _t_less_equal,
    "alldifferent": _t_alldifferent,
}
