"""Learned codes over the frame tree.

Every expanded frame gets a fixed-width feature vector summarizing its
boundary state. Frames of one definition share one autoencoder, so frames
of the same shape inform each other through the shared weights. Codes of
adjacent frames combine through bridge encoders, and each root-to-leaf
recursion path carries a balanced pairwise fold (a spine) so information
crosses d frames in O(log d) bridge applications. A success/deadend memory
per definition turns the codes into value-ordering advice for search.

Codes are advisory: nothing here writes into cells, so search results never
depend on what the encoders learned.
"""

import json
import os
import re

import numpy as np

from .autoenc import Autoencoder, Code
from .errors import StructuralError
from .language import EXPANDED, REF_WIDTH
from .lattice import bounds_of, info_bits

N_FEATURES = 16
_SLOTS = 3  # boundary cells summarized individually before aggregation


def _squash(x):
    return x / (1.0 + abs(x))


def _cell_features(content):
    decided = 1.0 if content.kind == "exact" else 0.0
    contra = 1.0 if content.kind == "contradiction" else 0.0
    bits = info_bits(content, REF_WIDTH) / 64.0
    r = bounds_of(content)
    if r is None:
        lo = hi = 0.0
    else:
        lo, hi = _squash(float(r[0])), _squash(float(r[1]))
    return [decided, bits, lo, hi, contra]


def featurize(frame, network, program, override=None):
    """Fixed 16-wide summary of a frame's boundary state.

    Three 5-feature slots (decided, pinned-down bits, squashed bounds,
    contradiction flag) for the first boundary cells, cells past the slots
    averaged into the last one, plus a clamped depth term. `override` maps
    cell id -> content and lets a caller ask "what would this frame look
    like if that cell held this" without touching the network.
    """
    cells = frame.boundary_cells(program)

    def content(cid):
        if override and cid in override:
            return override[cid]
        return network.content(cid)

    per = [_cell_features(content(c)) for c in cells]
    if len(per) <= _SLOTS:
        slots = per + [[0.0] * 5] * (_SLOTS - len(per))
    else:
        head = per[:_SLOTS - 1]
        tail = np.mean(per[_SLOTS - 1:], axis=0).tolist()
        slots = head + [tail]
    depth = min(frame.depth / 1024.0, 1.0)
    return np.array([f for slot in slots for f in slot] + [depth])


def _fold_pairwise(items, combine):
    """Balanced pairwise fold. Returns (root, hops) where hops[i] counts the
    combine applications on leaf i's path to the root; an odd tail carries
    upward for free, so hops[i] <= ceil(log2 n)."""
    n = len(items)
    hops = [0] * n
    pos = list(range(n))
    level = list(items)
    while len(level) > 1:
        nxt = []
        paired = []
        for i in range(0, len(level), 2):
            if i + 1 < len(level):
                nxt.append(combine(level[i], level[i + 1]))
                paired.append(True)
            else:
                nxt.append(level[i])
                paired.append(False)
        for leaf in range(n):
            p = pos[leaf] // 2
            if paired[p]:
                hops[leaf] += 1
            pos[leaf] = p
        level = nxt
    return level[0], hops


def spine_audit(depth):
    """Max leaf-to-root combine count for a path of `depth` frames."""
    if depth < 1:
        raise ValueError("a path has at least one frame")
    _, hops = _fold_pairwise(list(range(depth)), lambda a, b: None)
    return max(hops)


class AugmentationTree:
    """Shared encoders, bridges, spines, codes, and outcome memory.

    The code store keys by frame id, so one tree accompanies one instance
    lineage at a time; re-encoding a frame overwrites its entry. Encoders
    and memory carry over freely between runs.
    """

    def __init__(self, n_code=8):
        self.n_code = n_code
        self.frame_encoders = {}   # defname -> Autoencoder
        self.bridge_encoders = {}  # (parent defname, child defname) -> Autoencoder
        self.spine_bridges = {}    # path-root defname -> Autoencoder
        self.codes = {}            # frame id -> Code
        self.memory = {}           # defname -> [(vector, "success"|"deadend")]

    # -- encoders ------------------------------------------------------------

    def encoder_for(self, defname):
        enc = self.frame_encoders.get(defname)
        if enc is None:
            enc = Autoencoder(n_features=N_FEATURES, n_code=self.n_code)
            self.frame_encoders[defname] = enc
        return enc

    def bridge_for(self, parent_def, child_def):
        key = (parent_def, child_def)
        br = self.bridge_encoders.get(key)
        if br is None:
            br = Autoencoder(n_features=2 * self.n_code, n_code=self.n_code)
            self.bridge_encoders[key] = br
        return br

    def spine_bridge_for(self, defname):
        br = self.spine_bridges.get(defname)
        if br is None:
            # a self-recursive bridge is the natural spine combiner
            br = self.bridge_encoders.get((defname, defname))
        if br is None:
            br = Autoencoder(n_features=2 * self.n_code, n_code=self.n_code)
        self.spine_bridges[defname] = br
        return br

    # -- codes ---------------------------------------------------------------

    def encode_frame(self, inst, frame):
        feats = featurize(frame, inst.network, inst.program)
        code = self.encoder_for(frame.defname).encode(feats)
        self.codes[frame.id] = code
        return code

    def compose_path(self, inst, frame):
        """Fold codes along root..frame into one; returns (Code, hops).

        hops counts the bridge applications separating the queried frame
        from the root of the fold, the communication cost of interest.
        """
        path = []
        f = frame
        while True:
            path.append(f)
            if f.parent is None:
                break
            f = inst.frames[f.parent]
        path.reverse()
        leaves = [self.codes.get(f.id) or self.encode_frame(inst, f)
                  for f in path]
        if len(leaves) == 1:
            return leaves[0], 0
        bridge = self.spine_bridge_for(path[0].defname)

        def combine(a, b):
            return bridge.encode(np.concatenate([a.vector, b.vector]))

        root, hops = _fold_pairwise(leaves, combine)
        return root, hops[-1]

    def similarity(self, a, b):
        """Distance between two codes over jointly active units.

        Accepts frames (looked up in the code store) or Code objects
        directly; the latter lets callers compare frames from different
        instances, whose ids would collide in the store.
        """
        def as_code(x):
            if isinstance(x, Code):
                return x
            try:
                return self.codes[x.id]
            except KeyError:
                raise StructuralError("similarity needs both frames encoded")

        ca, cb = as_code(a), as_code(b)
        mask = ca.active & cb.active
        return float(np.linalg.norm(ca.vector[mask] - cb.vector[mask]))

    # -- memory and guidance -----------------------------------------------

    def record_outcome(self, frame, label):
        if label not in ("success", "deadend"):
            raise ValueError(f"label must be success or deadend, got {label!r}")
        code = self.codes.get(frame.id)
        if code is None:
            raise StructuralError("record_outcome needs the frame encoded")
        self.memory.setdefault(frame.defname, []).append(
            (code.vector.copy(), label))

    def oracle_scores(self, inst, descriptors):
        """Deadend-distance minus success-distance per candidate write."""
        scores = []
        for cell, info, fid in descriptors:
            frame = inst.frames[fid]
            mem = self.memory.get(frame.defname)
            if not mem:
                scores.append(0.0)
                continue
            feats = featurize(frame, inst.network, inst.program,
                              override={cell: info})
            code = self.encoder_for(frame.defname).encode(feats).vector
            d_succ = [np.linalg.norm(code - v) for v, lab in mem
                      if lab == "success"]
            d_dead = [np.linalg.norm(code - v) for v, lab in mem
                      if lab == "deadend"]
            score = 0.0
            if d_dead:
                score += min(d_dead)
            if d_succ:
                score -= min(d_succ)
            scores.append(float(score))
        return scores

    # -- training --------------------------------------------------------------

    def train_from_traces(self, traces, seed=0, epochs=150):
        """Fit frame encoders, bridges, and memory from solver traces."""
        logs = [traces] if isinstance(traces, TraceLog) else list(traces)
        states = {}
        edges = {}
        outcomes = []
        for log in logs:
            for defname, vec in log.states:
                states.setdefault(defname, []).append(vec)
            for pd, cd, pv, cv in log.edges:
                edges.setdefault((pd, cd), []).append((pv, cv))
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
        for j, key in enumerate(sorted(edges)):
            pd, cd = key
            pcodes = self.encoder_for(pd).transform(
                np.array([pv for pv, _ in edges[key]]))
            ccodes = self.encoder_for(cd).transform(
                np.array([cv for _, cv in edges[key]]))
            pairs = np.hstack([pcodes, ccodes])
            bridge = self.bridge_for(pd, cd)
            bridge.fit(pairs, epochs=epochs, seed=seed + 100 + j)
            report["batches"] += 1
            if pd == cd:
                self.spine_bridges[pd] = bridge
        self.memory = {}
        for defname, vec, label in outcomes:
            code = self.encoder_for(defname).encode(vec)
            self.memory.setdefault(defname, []).append(
                (code.vector.copy(), label))
            report["memory"][label] += 1
        return report


class LearnedOracle:
    """BranchOracle backed by an AugmentationTree."""

    def __init__(self, tree):
        self.tree = tree

    def scores(self, instance, descriptors):
        return self.tree.oracle_scores(instance, descriptors)


class TraceLog:
    """What the solver saw: frame states, tree edges, and outcomes.

    The frame tree (parent links) is one dimension of structure; the spine
    fold over each root-to-leaf path is the other. `structure` dumps both.
    """

    def __init__(self):
        self.states = []    # (defname, features)
        self.edges = []     # (parent def, child def, parent feat, child feat)
        self.outcomes = []  # (defname, features, label)
        self.n_nodes = 0

    def _live(self, inst):
        return [f for f in inst.frames if f.state == EXPANDED]

    def node(self, inst):
        self.n_nodes += 1
        feats = {}
        for f in self._live(inst):
            feats[f.id] = featurize(f, inst.network, inst.program)
            self.states.append((f.defname, feats[f.id]))
        for f in self._live(inst):
            if f.parent is not None and f.parent in feats:
                parent = inst.frames[f.parent]
                self.edges.append((parent.defname, f.defname,
                                   feats[f.parent], feats[f.id]))

    def solution(self, inst):
        for f in self._live(inst):
            self.outcomes.append(
                (f.defname, featurize(f, inst.network, inst.program),
                 "success"))

    def deadend(self, inst):
        for f in self._live(inst):
            self.outcomes.append(
                (f.defname, featurize(f, inst.network, inst.program),
                 "deadend"))

    def structure(self, inst):
        """Both structural dimensions of one instance, as plain data."""
        frame_edges = [(f.parent, f.id, f.defname)
                       for f in inst.frames if f.parent is not None]
        paths = {}
        for f in inst.frames:
            depth = 1
            g = f
            while g.parent is not None:
                depth += 1
                g = inst.frames[g.parent]
            paths[f.id] = {"depth": depth, "max_hops": spine_audit(depth)}
        return {"frame_edges": frame_edges, "paths": paths}


# -- persistence -------------------------------------------------------------


def _slug(name):
    return re.sub(r"[^A-Za-z0-9_-]", "_", name)


def save_bundle(tree, directory):
    """One checkpoint file per encoder plus a manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "n_code": tree.n_code,
        "feature_schema": 1,
        "definitions": sorted(tree.frame_encoders),
        "bridges": [f"{p}:{c}" for p, c in sorted(tree.bridge_encoders)],
        "spine_bridges": sorted(tree.spine_bridges),
        "memory": {
            d: [{"label": lab, "vector": vec.tolist()} for vec, lab in entries]
            for d, entries in sorted(tree.memory.items())
        },
    }
    for d, enc in tree.frame_encoders.items():
        enc.save(os.path.join(directory, f"enc_{_slug(d)}.aenc"))
    for (p, c), br in tree.bridge_encoders.items():
        br.save(os.path.join(directory, f"bridge_{_slug(p)}__{_slug(c)}.aenc"))
    for d, br in tree.spine_bridges.items():
        br.save(os.path.join(directory, f"spine_{_slug(d)}.aenc"))
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_bundle(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    tree = AugmentationTree(n_code=manifest["n_code"])
    for d in manifest["definitions"]:
        tree.frame_encoders[d] = Autoencoder.load(
            os.path.join(directory, f"enc_{_slug(d)}.aenc"))
    for key in manifest["bridges"]:
        p, c = key.split(":")
        tree.bridge_encoders[(p, c)] = Autoencoder.load(
            os.path.join(directory, f"bridge_{_slug(p)}__{_slug(c)}.aenc"))
    for d in manifest["spine_bridges"]:
        tree.spine_bridges[d] = Autoencoder.load(
            os.path.join(directory, f"spine_{_slug(d)}.aenc"))
    for d, entries in manifest["memory"].items():
        tree.memory[d] = [(np.array(e["vector"]), e["label"])
                          for e in entries]
    return tree
