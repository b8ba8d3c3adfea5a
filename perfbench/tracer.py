"""Per-layer spans recorded from outside the engine.

The tracer replaces each layer entry point with a wrapper, patching the
name where its caller looks it up (a module global such as
`fifth.search.demand_loop`, or a method on the class for calls made through
an instance). Nothing under `src/` changes, and `uninstall()` puts every
original back, so untraced passes run the engine exactly as shipped.

A span is (name, start, end, parent, query). Spans live in flat arrays in
memory while a pass runs; self time is a span's duration minus the time
its children cover, computed once the pass is over. Counters observed at
the same boundaries (write outcomes, quiescence steps, oracle candidates)
are kept as exact integers, apart from the times.
"""

import gzip
import time
from array import array
from collections import Counter

import numpy as np

import fifth.autoenc
import fifth.cli
import fifth.hierarchy
import fifth.language
import fifth.network
import fifth.search


def _outcome(tracer, args, result):
    tracer.counts["network.write." + result.value] += 1


def _quiesce(tracer, args, result):
    tracer.counts["network.quiesce.steps"] += result.steps_used


def _demand(tracer, args, result):
    if result.contradiction is not None:
        tracer.counts["search.deadends"] += 1


def _gc(tracer, args, result):
    tracer.counts["search.gc.frames_folded"] += len(result.summarized)


def _oracle(tracer, args, result):
    tracer.counts["hierarchy.oracle.candidates"] += len(args[2])


def _bundle(tracer, args, result):
    entries = sum(len(v) for v in result.memory.values())
    tracer.counts["hierarchy.memory_entries"] = max(
        tracer.counts["hierarchy.memory_entries"], entries)


def _fit(tracer, args, result):
    tracer.counts["autoenc.fit.epochs"] += len(result.history_)


# (owner, attribute, span name, observer). Module owners are patched where
# the calling module resolves the name at call time; class owners cover
# calls made through instances.
ENTRY_POINTS = (
    (fifth.cli, "main", "cli", None),
    (fifth.cli, "parse", "language.parse", None),
    (fifth.cli, "load_bundle", "cli.load_bundle", _bundle),
    (fifth.cli, "save_bundle", "hierarchy.bundle_io", None),
    (fifth.cli, "solve", "search.solve", None),
    (fifth.cli, "optimize", "search.optimize", None),
    (fifth.search, "instantiate", "language.instantiate", None),
    (fifth.search, "demand_loop", "language.demand", _demand),
    (fifth.search, "collect_garbage", "search.gc", _gc),
    (fifth.language, "expand", "language.expand", None),
    (fifth.language.Instance, "clone", "language.instance_clone", None),
    (fifth.network, "merge", "lattice.merge", None),
    (fifth.network.Network, "write", "network.write", _outcome),
    (fifth.network.Network, "attach", "network.attach", None),
    (fifth.network.Network, "clone", "network.clone", None),
    (fifth.network.Network, "run_to_quiescence", "network.quiesce", _quiesce),
    (fifth.hierarchy.AugmentationTree, "oracle_scores", "hierarchy.oracle",
     _oracle),
    (fifth.hierarchy.AugmentationTree, "train_from_traces", "hierarchy.train",
     None),
    (fifth.hierarchy.TraceLog, "node", "hierarchy.tracelog", None),
    (fifth.hierarchy.TraceLog, "solution", "hierarchy.tracelog", None),
    (fifth.hierarchy.TraceLog, "deadend", "hierarchy.tracelog", None),
    (fifth.autoenc.Autoencoder, "fit", "autoenc.fit", _fit),
    (fifth.autoenc.Autoencoder, "encode", "autoenc.encode", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.query = -1
        self._originals = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._query = array("q")
        self._stack = [-1]
        self.counts = Counter()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, observe):
        nid = self._name_id(name)
        names, starts, ends = self._name, self._start, self._end
        parents, queries, stack = self._parent, self._query, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            queries.append(tracer.query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self):
        """Drop recorded spans and counters; the wrappers stay valid."""
        for arr in (self._name, self._start, self._end, self._parent,
                    self._query):
            del arr[:]
        del self._stack[1:]
        self.counts.clear()

    # -- analysis ------------------------------------------------------------

    def snapshot(self):
        """The pass's spans as numpy columns, with self time per span."""
        name = np.frombuffer(self._name, dtype=np.uint16).copy()
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        parent = np.frombuffer(self._parent, dtype=np.int64).copy()
        query = np.frombuffer(self._query, dtype=np.int64).copy()
        dur = end - start
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "query": query, "dur": dur, "self": dur - covered,
            "counts": dict(self.counts),
        }

    def write_spans(self, snap, path):
        """Spans as gzip'd tab-separated lines: id name start_s end_s parent
        query, times relative to the first span."""
        t0 = snap["start"][0] if len(snap["start"]) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tquery\n")
            for i, (n, s, e, p, q) in enumerate(zip(
                    snap["name"].tolist(), (snap["start"] - t0).tolist(),
                    (snap["end"] - t0).tolist(), snap["parent"].tolist(),
                    snap["query"].tolist())):
                fh.write(f"{i}\t{self.names[n]}\t{s:.7f}\t{e:.7f}\t{p}\t{q}\n")


def layer_metrics(tracer, snap, query_depths, factors):
    """Per-layer metrics of one traced pass.

    `query_depths` maps query index -> recursion depth for the queries that
    have one; it feeds the demand growth exponent. `factors` holds each
    query's machine-speed factor (see calibrate.py); every span time is
    scaled by its query's.
    """
    scale = np.asarray(factors)[snap["query"]]
    dur = snap["dur"] * scale
    n_names = len(tracer.names)
    calls = np.bincount(snap["name"], minlength=n_names)
    self_t = np.bincount(snap["name"], weights=snap["self"] * scale,
                         minlength=n_names)
    incl = np.bincount(snap["name"], weights=dur, minlength=n_names)
    counts = snap["counts"]

    def nid(name):
        return tracer.names.index(name)

    def c(name):
        return int(calls[nid(name)])

    def s(*names):
        return float(sum(self_t[nid(n)] for n in names))

    def inclusive(name):
        return float(incl[nid(name)])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    writes = c("network.write")
    nodes = c("language.demand")
    steps = counts.get("network.quiesce.steps", 0)
    candidates = counts.get("hierarchy.oracle.candidates", 0)
    bundle = snap["name"] == nid("cli.load_bundle")
    bundle_self = (snap["self"] * scale)[bundle]
    return {
        "lattice.merge.calls": c("lattice.merge"),
        "lattice.merge.self_s": s("lattice.merge"),
        "network.write.calls": writes,
        "network.write.refined": counts.get("network.write.refined", 0),
        "network.write.unchanged": counts.get("network.write.unchanged", 0),
        "network.write.contradiction":
            counts.get("network.write.contradiction", 0),
        "network.write.unchanged_ratio":
            rate(counts.get("network.write.unchanged", 0), writes),
        "network.write.self_s": s("network.write"),
        "network.quiesce.steps": steps,
        "network.quiesce.self_s": s("network.quiesce"),
        "network.quiesce.steps_per_s":
            rate(steps, inclusive("network.quiesce")),
        "network.clone.calls": c("network.clone"),
        "network.clone.us_per_call":
            1e6 * rate(inclusive("network.clone"), c("network.clone")),
        "network.attach.calls": c("network.attach"),
        "network.attach.self_s": s("network.attach"),
        "language.parse.self_s": s("language.parse"),
        "language.instantiate.self_s": s("language.instantiate"),
        "language.demand.self_s": s("language.demand"),
        "language.demand.depth_exponent":
            _depth_exponent(tracer, snap, dur, query_depths),
        "language.expand.calls": c("language.expand"),
        "language.expand.self_s": s("language.expand"),
        "language.instance_clone.self_s": s("language.instance_clone"),
        "search.nodes": nodes,
        "search.nodes_per_s": rate(
            nodes, inclusive("search.solve") + inclusive("search.optimize")),
        "search.deadend_ratio": rate(counts.get("search.deadends", 0), nodes),
        "search.self_s": s("search.solve", "search.optimize"),
        "search.gc.calls": c("search.gc"),
        "search.gc.self_s": s("search.gc"),
        "search.gc.frames_folded": counts.get("search.gc.frames_folded", 0),
        "hierarchy.oracle.candidates": candidates,
        "hierarchy.oracle.us_per_candidate":
            1e6 * rate(inclusive("hierarchy.oracle"), candidates),
        "hierarchy.oracle.self_s": s("hierarchy.oracle"),
        "hierarchy.memory_entries": counts.get("hierarchy.memory_entries", 0),
        "hierarchy.tracelog.self_s": s("hierarchy.tracelog"),
        "autoenc.fit.self_s": s("autoenc.fit"),
        "autoenc.fit.epochs_per_s": rate(
            counts.get("autoenc.fit.epochs", 0), inclusive("autoenc.fit")),
        "autoenc.encode.calls": c("autoenc.encode"),
        "autoenc.encode.self_s": s("autoenc.encode"),
        "cli.self_s": s("cli"),
        "cli.load_bundle.self_s":
            float(np.median(bundle_self)) if len(bundle_self) else 0.0,
    }


def _depth_exponent(tracer, snap, dur, query_depths):
    """Slope of log(demand time) against log(depth) over the queries that
    have a depth; 0 when fewer than two depths are present."""
    if len(query_depths) < 2:
        return 0.0
    demand = snap["name"] == tracer.names.index("language.demand")
    per_query = np.bincount(snap["query"][demand] + 1, weights=dur[demand])
    xs, ys = [], []
    for q, depth in sorted(query_depths.items()):
        if q + 1 < len(per_query) and per_query[q + 1] > 0:
            xs.append(np.log(depth))
            ys.append(np.log(per_query[q + 1]))
    if len(set(xs)) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])
