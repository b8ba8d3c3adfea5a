"""Learned codes over the frame tree.

Every expanded frame gets a fixed-width feature vector summarizing its
boundary state. Frames of one definition share one autoencoder, so frames
of the same shape inform each other through the shared weights. A memory
of distinct success and deadend codes per definition turns the codes into
value-ordering advice for search, one batched encode per (frame, cell)
scoring all its candidate values, bit-identical to scoring them one by
one. The codes along a root-to-leaf recursion path fold pairwise into one
(a spine), so information crosses d frames in O(log d) combines; the
combiner is untrained and never saved, since only the hop bound reads the
fold.

Codes are advisory: nothing here writes into cells, so search results never
depend on what the encoders learned.
"""

import json
import math
import os
import re
import struct
from itertools import groupby

import numpy as np

from .autoenc import Autoencoder
from .errors import BundleError
from .language import EXPANDED
from .lattice import bounds_of, info_bits

N_FEATURES = 16
REF_WIDTH = 1024  # reference width for "how pinned down is this cell" scoring
_SLOTS = 3  # boundary cells summarized individually before aggregation


def _squash(x):
    """x / (1 + |x|), ±1 at an open end; a finite bound lies within ±2^62,
    so it converts."""
    x = float(x)
    if math.isinf(x):
        return math.copysign(1.0, x)
    return x / (1.0 + abs(x))


def _cell_features(content):
    decided = 1.0 if content.kind == "exact" else 0.0
    contra = 1.0 if content.kind == "contradiction" else 0.0
    bits = info_bits(content, REF_WIDTH) / 64.0
    r = bounds_of(content)
    if r is None:
        lo = hi = 0.0
    else:
        lo, hi = _squash(r[0]), _squash(r[1])
    return [decided, bits, lo, hi, contra]


def _feature_rows(depth, per):
    """One 16-wide row per variant of a frame from `per`, its boundary
    cells' features shaped (variants, cells, 5): three 5-feature slots
    (decided, pinned-down bits, squashed bounds, contradiction flag) for
    the first cells, the cells past the slots averaged into the last one,
    zeros for missing cells, plus a clamped depth term."""
    n, m, _ = per.shape
    rows = np.zeros((n, N_FEATURES))
    head = m if m <= _SLOTS else _SLOTS - 1
    rows[:, :5 * head] = per[:, :head].reshape(n, -1)
    if m > _SLOTS:
        tail = per[:, head:]
        rows[:, 5 * head:5 * _SLOTS] = tail.sum(axis=1) / tail.shape[1]
    rows[:, -1] = min(depth / 1024.0, 1.0)
    return rows


def featurize(frame, network, program, override=None):
    """Fixed 16-wide summary of a frame's boundary state (see
    `_feature_rows`). `override` maps cell id -> content and lets a caller
    ask "what would this frame look like if that cell held this" without
    touching the network.
    """
    override = override or {}
    per = [_cell_features(override[c] if c in override
                          else network.content(c))
           for c in frame.boundary_cells(program)]
    return _feature_rows(frame.depth, np.array(per).reshape(1, -1, 5))[0]


def _fold_pairwise(items, combine):
    """Balanced pairwise fold. Returns (root, hops) where hops counts the
    combine applications on the last leaf's path to the root. An odd tail
    carries upward for free, so the last leaf is combined only at levels of
    even length and hops <= ceil(log2 n)."""
    level = list(items)
    hops = 0
    while len(level) > 1:
        odd = len(level) % 2
        nxt = [combine(level[i], level[i + 1])
               for i in range(0, len(level) - odd, 2)]
        if odd:
            nxt.append(level[-1])
        else:
            hops += 1
        level = nxt
    return level[0], hops


class AugmentationTree:
    """Shared frame encoders, outcome memory, and spine combiners.

    Codes are encoded from the instance on each call and never kept, since
    frame ids repeat across instances. Encoders and memory carry over
    freely between runs; the spine combiners are untrained and never
    saved. Each memory value holds the distinct codes seen with that
    outcome, one per row, rows sorted.
    """

    def __init__(self, n_code=8):
        self.n_code = n_code
        self.frame_encoders = {}   # defname -> Autoencoder
        self.spine_combiners = {}  # root defname -> Autoencoder
        self.memory = {}           # (defname, "success"|"deadend") -> rows

    # -- encoders ------------------------------------------------------------

    def encoder_for(self, defname):
        enc = self.frame_encoders.get(defname)
        if enc is None:
            enc = Autoencoder(n_features=N_FEATURES, n_code=self.n_code)
            self.frame_encoders[defname] = enc
        return enc

    def spine_for(self, root_def):
        comb = self.spine_combiners.get(root_def)
        if comb is None:
            comb = Autoencoder(n_features=2 * self.n_code, n_code=self.n_code)
            self.spine_combiners[root_def] = comb
        return comb

    # -- codes ---------------------------------------------------------------

    def encode_frame(self, inst, frame):
        feats = featurize(frame, inst.network, inst.program)
        return self.encoder_for(frame.defname).encode(feats)

    def compose_path(self, inst, frame):
        """Fold codes along root..frame into one; returns (code, hops).

        hops counts the combines separating the queried frame from the root
        of the fold, the communication cost of interest. The fold combines
        with the root definition's spine combiner.
        """
        path = [frame]
        while path[-1].parent is not None:
            path.append(inst.frames[path[-1].parent])
        path.reverse()
        leaves = [self.encode_frame(inst, f) for f in path]
        if len(leaves) == 1:
            return leaves[0], 0
        spine = self.spine_for(path[0].defname)

        def combine(a, b):
            return spine.encode(np.concatenate([a, b]))

        return _fold_pairwise(leaves, combine)

    # -- guidance ------------------------------------------------------------

    def oracle_scores(self, inst, descriptors):
        """Deadend-distance minus success-distance per candidate write,
        each the Euclidean distance to the nearest remembered code. A run
        of candidates for one cell of one frame, as search asks, is scored
        in one batch: one feature matrix, one encode. Each score is
        bit-identical to featurizing and encoding that candidate alone."""
        scores = []
        for (fid, cell), group in groupby(descriptors,
                                          key=lambda d: (d[2], d[0])):
            infos = [info for _, info, _ in group]
            frame = inst.frames[fid]
            succ = self.memory.get((frame.defname, "success"))
            dead = self.memory.get((frame.defname, "deadend"))
            score = np.zeros(len(infos))
            if succ is not None or dead is not None:
                cells = frame.boundary_cells(inst.program)
                per = np.empty((len(infos), len(cells), 5))
                per[:] = np.reshape([_cell_features(inst.network.content(c))
                                     for c in cells], (-1, 5))
                per[:, [i for i, c in enumerate(cells) if c == cell]] = \
                    np.array([_cell_features(i) for i in infos])[:, None]
                codes = self.encoder_for(frame.defname).encode(
                    _feature_rows(frame.depth, per))[:, None]
                if dead is not None:
                    score += np.sqrt(((dead - codes) ** 2).sum(axis=2)).min(1)
                if succ is not None:
                    score -= np.sqrt(((succ - codes) ** 2).sum(axis=2)).min(1)
            scores.extend(score.tolist())
        return scores

    # -- training --------------------------------------------------------------

    def train_from_traces(self, traces, seed=0, epochs=150):
        """Fit one frame encoder per definition, then the memory, from
        solver traces. The report counts every outcome seen; the memory
        keeps distinct codes."""
        logs = [traces] if isinstance(traces, TraceLog) else list(traces)
        states = {}
        outcomes = []
        for log in logs:
            for defname, vec in log.states:
                states.setdefault(defname, []).append(vec)
            outcomes.extend(log.outcomes)
        for defname, vec, _label in outcomes:
            states.setdefault(defname, []).append(vec)
        report = {"batches": 0, "rows": 0, "losses": {},
                  "memory": {"success": 0, "deadend": 0}}
        if not states:
            return report
        for i, defname in enumerate(sorted(states)):
            x = np.array(states[defname])
            enc = self.encoder_for(defname)
            trace = enc.fit(x, epochs=epochs, seed=seed + i).history_
            report["batches"] += 1
            report["rows"] += x.shape[0]
            report["losses"][defname] = trace[-1] if trace else None
        # one encode per definition; each row's code is bit-identical to
        # encoding that outcome alone
        vecs = {}
        for defname, vec, _label in outcomes:
            vecs.setdefault(defname, []).append(vec)
        codes = {d: iter(self.encoder_for(d).encode(np.array(v)).tolist())
                 for d, v in vecs.items()}
        seen = {}
        for defname, _vec, label in outcomes:
            code = next(codes[defname])
            seen.setdefault((defname, label), set()).add(tuple(code))
            report["memory"][label] += 1
        self.memory = {key: np.array(sorted(rows))
                       for key, rows in seen.items()}
        return report


class LearnedOracle:
    """BranchOracle backed by an AugmentationTree."""

    def __init__(self, tree):
        self.tree = tree

    def scores(self, instance, descriptors):
        return self.tree.oracle_scores(instance, descriptors)


class TraceLog:
    """What the solver saw: frame states and outcomes.

    `node` logs every expanded frame's features; `solution` and `deadend`
    log every expanded frame with that outcome, so the same state recurs
    once per leaf that reaches it. Handed the instance `node` just saw,
    they reuse its features: search folds frames only in a node that
    splits, which gets neither callback.
    """

    def __init__(self):
        self.states = []    # (defname, features)
        self.outcomes = []  # (defname, features, label)
        self.n_nodes = 0
        self._last = (None, [])  # the last node's instance, (frame, features)

    def _features(self, inst):
        seen, feats = self._last
        if seen is inst:
            return feats
        return [(f, featurize(f, inst.network, inst.program))
                for f in inst.frames if f.state == EXPANDED]

    def node(self, inst):
        self.n_nodes += 1
        self._last = (None, [])  # a node is always featurized afresh
        self._last = (inst, self._features(inst))
        self.states.extend((f.defname, x) for f, x in self._last[1])

    def solution(self, inst):
        self.outcomes.extend(
            (f.defname, x, "success") for f, x in self._features(inst))

    def deadend(self, inst):
        self.outcomes.extend(
            (f.defname, x, "deadend") for f, x in self._features(inst))


# -- persistence -------------------------------------------------------------


def _slug(name):
    return re.sub(r"[^A-Za-z0-9_-]", "_", name)


def save_bundle(tree, directory):
    """One checkpoint file per frame encoder plus a manifest."""
    os.makedirs(directory, exist_ok=True)
    memory = {}
    for (d, label), rows in tree.memory.items():
        memory.setdefault(d, {})[label] = rows.tolist()
    manifest = {
        "n_code": tree.n_code,
        "feature_schema": 1,
        "definitions": sorted(tree.frame_encoders),
        "memory": memory,
    }
    for d, enc in tree.frame_encoders.items():
        enc.save(os.path.join(directory, f"enc_{_slug(d)}.aenc"))
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_bundle(directory):
    """Read a bundle written by save_bundle. A truncated or incomplete
    file, memory that is not rows by label by definition (the older layout
    listed labelled vectors), or memory rows or encoders whose width does
    not fit `n_code` and the feature count raise BundleError naming the
    file; retraining is the only upgrade path. Keys it does not read (the
    older `bridges` and `spine_bridges`) and `bridge_*.aenc` files are
    ignored."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        tree = AugmentationTree(n_code=manifest["n_code"])
        n_code = tree.n_code
        tree.memory = {(d, label): np.array(rows, dtype=float)
                       for d, by_label in manifest["memory"].items()
                       for label, rows in by_label.items()}
        for (d, label), rows in tree.memory.items():
            if rows.ndim != 2 or rows.shape[1] != n_code:
                raise ValueError(
                    f"{label} memory of {d!r} is not {n_code} codes wide")
        for d in manifest["definitions"]:
            path = os.path.join(directory, f"enc_{_slug(d)}.aenc")
            enc = Autoencoder.load(path)
            if (enc.n_features, enc.n_code) != (N_FEATURES, n_code):
                raise ValueError(
                    f"encoder maps {enc.n_features} features to"
                    f" {enc.n_code}, not {N_FEATURES} to {n_code}")
            tree.frame_encoders[d] = enc
    except (AttributeError, KeyError, TypeError, ValueError,
            struct.error) as e:
        raise BundleError(
            f"{path}: cannot read model bundle ({type(e).__name__}: {e});"
            " retrain it with fifth train") from e
    return tree
