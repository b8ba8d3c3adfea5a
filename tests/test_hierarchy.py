"""Frame featurization, shared encoders, spine composition, guidance."""

from pathlib import Path

import numpy as np
import pytest

from fifth import (
    AugmentationTree,
    LearnedOracle,
    Query,
    TraceLog,
    UniformOracle,
    demand_loop,
    exact,
    instantiate,
    parse,
    solve,
)
from fifth.hierarchy import (
    N_FEATURES,
    featurize,
    load_bundle,
    save_bundle,
)
from fifth.language import EXPANDED

CSP_TRAIN = Path(__file__).resolve().parent.parent / "corpus" / "csp" / "train"
CSP_EVAL = CSP_TRAIN.parent / "eval"

FACT = """
(def (fact n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call fact nm1 rest)
     (product n rest r))
    ((const r 1))))
"""

COUNT = """
(def (count n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call count nm1 rest)
     (sum rest one r))
    ((const r 0))))
"""


def fact_chain(n, depth=50):
    prog = parse(FACT)
    inst = instantiate(prog, "fact", {"n": n})
    demand_loop(inst, (inst.cell_of(0, "r"),), depth, 1_000_000)
    return inst


def count_chain(n, depth=5000):
    prog = parse(COUNT)
    inst = instantiate(prog, "count", {"n": n})
    demand_loop(inst, (inst.cell_of(0, "r"),), depth, 10_000_000)
    return inst


def expanded(inst):
    return [f for f in inst.frames if f.state == EXPANDED]


def fact_traces(ns=(6, 10)):
    prog = parse(FACT)
    logs = []
    for n in ns:
        log = TraceLog()
        solve(prog, Query(entry="fact", bindings=(("n", n),),
                          show=("r",), depth=20), trace=log)
        logs.append(log)
    return logs


@pytest.fixture(scope="module")
def fact_tree():
    tree = AugmentationTree()
    tree.train_from_traces(fact_traces(), seed=3)
    return tree


# -- featurization -----------------------------------------------------------


def test_fresh_root_features_are_zero():
    prog = parse(FACT)
    inst = instantiate(prog, "fact")
    vec = featurize(inst.root, inst.network, inst.program)
    assert vec.shape == (N_FEATURES,)
    assert np.all(vec == 0.0)


def test_fresh_child_has_only_depth_term():
    # an unconditional recursion cut by the depth budget: the frame left
    # unexpanded has its boundary cell, linked to a free cell of its
    # parent, so it carries nothing and only the depth term registers
    prog = parse("(def (loop x) (cell y) (call loop y))")
    inst = instantiate(prog, "loop")
    report = demand_loop(inst, (inst.cell_of(0, "x"),), 3, 10_000)
    assert report.depth_exhausted
    leaf = max(expanded(inst), key=lambda f: f.depth)
    pending = next(f for f in inst.frames if f.state == "unexpanded")
    vec = featurize(pending, inst.network, inst.program)
    assert vec[-1] == pytest.approx(pending.depth / 1024.0)
    assert np.all(vec[:-1] == 0.0)
    assert leaf.depth < pending.depth


def test_decided_frame_sets_decided_flags():
    inst = fact_chain(6)
    vec = featurize(inst.root, inst.network, inst.program)
    assert vec[0] == 1.0  # n decided
    assert vec[5] == 1.0  # r decided
    assert np.all(vec[10:15] == 0.0)  # no third boundary cell


def test_featurize_deterministic():
    inst = fact_chain(5)
    a = featurize(inst.root, inst.network, inst.program)
    b = featurize(inst.root, inst.network, inst.program)
    assert np.array_equal(a, b)


def test_features_stay_in_unit_box():
    inst = fact_chain(10)
    for f in inst.frames:
        vec = featurize(f, inst.network, inst.program)
        assert np.all(vec <= 1.0) and np.all(vec >= -1.0)


def test_featurize_aggregates_wide_boundaries():
    text = """
    (def (wide a b c d e)
      (const a 1)
      (const b 2)
      (const c 3)
      (const d 4)
      (const e 5))
    """
    prog = parse(text)
    inst = instantiate(prog, "wide")
    inst.network.run_to_quiescence(1000)
    vec = featurize(inst.root, inst.network, inst.program)
    assert vec.shape == (N_FEATURES,)
    # slots 0 and 1 hold cells a and b; slot 2 averages c, d, e
    assert vec[0] == 1.0 and vec[5] == 1.0
    assert vec[10] == 1.0  # mean of three decided flags
    mean_lo = np.mean([3 / 4, 4 / 5, 5 / 6])
    assert vec[12] == pytest.approx(mean_lo)


def test_featurize_override_is_hypothetical():
    prog = parse(FACT)
    inst = instantiate(prog, "fact")
    n_cell = inst.cell_of(0, "n")
    before = inst.network.write_counter
    vec = featurize(inst.root, inst.network, inst.program,
                    override={n_cell: exact(5)})
    assert vec[0] == 1.0
    assert inst.network.write_counter == before
    assert inst.network.content(n_cell).kind == "nothing"


# -- encoding and weight sharing ---------------------------------------------


def test_same_state_frames_encode_identically():
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(1)
    a, b = fact_chain(8), fact_chain(8)
    ca = tree.encode_frame(a, expanded(a)[3])
    cb = tree.encode_frame(b, expanded(b)[3])
    assert np.array_equal(ca, cb)


def test_zero_weight_encoder_gives_zero_code():
    tree = AugmentationTree()
    inst = fact_chain(4)
    code = tree.encode_frame(inst, inst.root)
    assert np.all(code == 0.0)


def test_code_length_fixed():
    tree = AugmentationTree(n_code=5)
    inst = fact_chain(4)
    for f in expanded(inst):
        assert len(tree.encode_frame(inst, f)) == 5


def test_encoder_object_shared_per_definition():
    tree = AugmentationTree()
    assert tree.encoder_for("fact") is tree.encoder_for("fact")


def test_retraining_shifts_all_codes_of_a_definition():
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(1)
    inst = fact_chain(6)
    frames = expanded(inst)[:3]
    before = [tree.encode_frame(inst, f).copy() for f in frames]
    tree.encoder_for("fact").init_weights(2)  # stands in for a training step
    after = [tree.encode_frame(inst, f) for f in frames]
    for old, new in zip(before, after):
        assert not np.array_equal(old, new)


# -- spine composition ---------------------------------------------------------


def test_compose_single_frame_is_free():
    tree = AugmentationTree()
    prog = parse(FACT)
    inst = instantiate(prog, "fact")
    code, hops = tree.compose_path(inst, inst.root)
    assert hops == 0
    root_code = tree.encode_frame(inst, inst.root)
    assert np.array_equal(code, root_code)


def test_compose_deep_chain_hops_logarithmic():
    inst = count_chain(63)  # 64 expanded frames on the path
    tree = AugmentationTree()
    tree.encoder_for("count").init_weights(3)
    leaf = max(expanded(inst), key=lambda f: f.depth)
    assert leaf.depth == 63
    code, hops = tree.compose_path(inst, leaf)
    assert hops <= 7
    assert len(code) == tree.n_code


def test_compose_path_deterministic():
    inst = fact_chain(9)
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(4)
    leaf = max(expanded(inst), key=lambda f: f.depth)
    c1, h1 = tree.compose_path(inst, leaf)
    c2, h2 = tree.compose_path(inst, leaf)
    assert np.array_equal(c1, c2)
    assert h1 == h2


def _weighted_fact_tree():
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(4)
    tree.spine_for("fact").init_weights(5)
    return tree


def test_compose_path_reads_the_instance_it_is_given():
    # frame ids repeat across instances, so nothing may be keyed by them
    def deepest(inst):
        return max(expanded(inst), key=lambda f: f.depth)

    big, small = fact_chain(7), fact_chain(3)
    fresh, _ = _weighted_fact_tree().compose_path(small, deepest(small))
    tree = _weighted_fact_tree()
    first, _ = tree.compose_path(big, deepest(big))
    second, _ = tree.compose_path(small, deepest(small))
    assert np.array_equal(second, fresh)
    assert not np.array_equal(second, first)


def test_compose_depends_only_on_path_codes():
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(4)
    a, b = fact_chain(7), fact_chain(7)
    la = max(expanded(a), key=lambda f: f.depth)
    lb = max(expanded(b), key=lambda f: f.depth)
    ca, _ = tree.compose_path(a, la)
    cb, _ = tree.compose_path(b, lb)
    assert np.array_equal(ca, cb)


# -- code distances ------------------------------------------------------------


def test_equal_subproblems_closer_than_different(fact_tree):
    # frames with the same remaining subproblem, from two separate runs
    a, b = fact_chain(8), fact_chain(8)
    same_a = fact_tree.encode_frame(a, expanded(a)[3])
    same_b = fact_tree.encode_frame(b, expanded(b)[3])
    other = fact_tree.encode_frame(a, expanded(a)[6])
    d_same = np.linalg.norm(same_a - same_b)
    d_diff = np.linalg.norm(same_a - other)
    assert d_same == 0.0
    assert d_diff > 0.1  # trained codes separate distinct states


# -- memory and guidance -----------------------------------------------------


def test_empty_memory_scores_zero():
    tree = AugmentationTree()
    prog = parse(FACT)
    inst = instantiate(prog, "fact")
    n_cell = inst.cell_of(0, "n")
    scores = tree.oracle_scores(inst, [(n_cell, exact(v), 0) for v in (1, 2)])
    assert scores == [0.0, 0.0]


def test_remembered_success_scores_highest():
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(6)
    prog = parse(FACT)
    inst = instantiate(prog, "fact")
    n_cell = inst.cell_of(0, "n")
    target = featurize(inst.root, inst.network, inst.program,
                       override={n_cell: exact(3)})
    code = tree.encoder_for("fact").encode(target)
    tree.memory[("fact", "success")] = code[None, :].copy()
    descriptors = [(n_cell, exact(v), 0) for v in (1, 2, 3, 4)]
    scores = tree.oracle_scores(inst, descriptors)
    assert max(range(4), key=lambda i: scores[i]) == 2
    assert all(np.isfinite(s) for s in scores)


def test_scoring_does_not_mutate_network():
    tree = AugmentationTree()
    tree.encoder_for("fact").init_weights(6)
    tree.memory[("fact", "deadend")] = np.ones((1, 8))
    prog = parse(FACT)
    inst = instantiate(prog, "fact")
    n_cell = inst.cell_of(0, "n")
    before = inst.network.write_counter
    tree.oracle_scores(inst, [(n_cell, exact(v), 0) for v in (1, 2, 3)])
    assert inst.network.write_counter == before
    assert inst.network.content(n_cell).kind == "nothing"


QUEENS5 = None


def queens5():
    global QUEENS5
    if QUEENS5 is None:
        names = [f"q{i}" for i in range(1, 6)]
        lines = [f"(def (queens {' '.join(names)})"]
        for q in names:
            lines.append(f"  (choose {q} 1 2 3 4 5)")
        lines.append(f"  (alldiff {' '.join(names)})")
        for d in range(1, 5):
            lines.append(f"  (const d{d} {d})")
        for i in range(1, 6):
            for j in range(i + 1, 6):
                d = j - i
                lines.append(f"  (cell u{i}x{j})")
                lines.append(f"  (sum q{i} d{d} u{i}x{j})")
                lines.append(f"  (alldiff u{i}x{j} q{j})")
                lines.append(f"  (cell v{i}x{j})")
                lines.append(f"  (sum v{i}x{j} d{d} q{i})")
                lines.append(f"  (alldiff v{i}x{j} q{j})")
        lines.append(")")
        QUEENS5 = parse("\n".join(lines))
    return QUEENS5


def _solution_set(result):
    return sorted(tuple(sorted(s["cells"].items())) for s in result.solutions)


def _reference_scores(inst, descriptors, tree, memory):
    """The per-entry scoring loop over a memory that keeps every outcome
    seen, repeats included, as defname -> [(vector, label)]."""
    scores = []
    for cell, info, fid in descriptors:
        frame = inst.frames[fid]
        mem = memory[frame.defname]
        feats = featurize(frame, inst.network, inst.program,
                          override={cell: info})
        code = tree.encoder_for(frame.defname).encode(feats)
        d_succ = [np.linalg.norm(code - v) for v, lab in mem
                  if lab == "success"]
        d_dead = [np.linalg.norm(code - v) for v, lab in mem
                  if lab == "deadend"]
        score = 0.0
        if d_dead:
            score += min(d_dead)
        if d_succ:
            score -= min(d_succ)
        scores.append((float(score), max(d_succ + d_dead, default=0.0)))
    return scores


def test_deduplicated_memory_scores_like_every_outcome():
    log = TraceLog()
    programs = [parse((CSP_TRAIN / f"train-0{i}.5th").read_text())
                for i in (0, 5, 7)]
    for prog in programs:
        solve(prog, prog.query, trace=log)
    tree = AugmentationTree()
    report = tree.train_from_traces(log, seed=0)
    seen = report["memory"]["success"] + report["memory"]["deadend"]
    assert seen == len(log.outcomes)
    assert sum(len(rows) for rows in tree.memory.values()) < seen
    every_outcome = {}
    for d, vec, lab in log.outcomes:
        every_outcome.setdefault(d, []).append(
            (tree.encoder_for(d).encode(vec), lab))

    checked = []

    class Checking:
        def scores(self, inst, descriptors):
            got = tree.oracle_scores(inst, descriptors)
            want = _reference_scores(inst, descriptors, tree, every_outcome)
            for g, (w, scale) in zip(got, want):
                # summation order differs from np.linalg.norm's dot product
                assert g == pytest.approx(w, rel=0,
                                          abs=8 * np.finfo(float).eps * scale)
            checked.extend(got)
            return got

    for prog in programs:
        solve(prog, prog.query, oracle=Checking())
    assert len(checked) > 20
    assert len(set(checked)) > 1


def _one_by_one(tree, inst, descriptors):
    """Score each candidate alone: featurize with the override, encode the
    one row, take the distances to the memory rows."""
    scores = []
    for cell, info, fid in descriptors:
        frame = inst.frames[fid]
        succ = tree.memory.get((frame.defname, "success"))
        dead = tree.memory.get((frame.defname, "deadend"))
        if succ is None and dead is None:
            scores.append(0.0)
            continue
        feats = featurize(frame, inst.network, inst.program,
                          override={cell: info})
        code = tree.encoder_for(frame.defname).encode(feats)
        score = 0.0
        if dead is not None:
            score += np.sqrt(((dead - code) ** 2).sum(axis=1)).min()
        if succ is not None:
            score -= np.sqrt(((succ - code) ** 2).sum(axis=1)).min()
        scores.append(float(score))
    return scores


@pytest.fixture(scope="module")
def csp_tree():
    log = TraceLog()
    for i in (0, 5, 7):
        prog = parse((CSP_TRAIN / f"train-0{i}.5th").read_text())
        solve(prog, prog.query, trace=log)
    tree = AugmentationTree()
    tree.train_from_traces(log, seed=0)
    return tree


def test_batched_scores_equal_one_by_one_in_search(csp_tree):
    """Every call search makes on eval CSPs (six boundary cells, so the
    tail slot averages four) scores exactly as candidates one by one."""
    calls = []

    class Checking:
        def scores(self, inst, descriptors):
            got = csp_tree.oracle_scores(inst, descriptors)
            assert got == _one_by_one(csp_tree, inst, descriptors)
            calls.append(got)
            return got

    for f in sorted(CSP_EVAL.glob("*.5th"))[:6]:
        prog = parse(f.read_text())
        solve(prog, prog.query, oracle=Checking())
    assert len(calls) > 20
    assert len({s for got in calls for s in got}) > 10


def test_batched_scores_across_groups_and_cells(csp_tree):
    prog = parse((CSP_EVAL / "eval-03.5th").read_text())
    inst = instantiate(prog, "csp")
    inst.network.run_to_quiescence(1000)
    x0, x1, k3 = (inst.cell_of(0, n) for n in ("x0", "x1", "k3"))
    assert len(inst.root.boundary_cells(prog)) > 3
    assert k3 not in inst.root.boundary_cells(prog)
    # runs for x0, x1, a cell outside the boundary, then x0 again
    descriptors = ([(x0, exact(v), 0) for v in (0, 1, 2)]
                   + [(x1, exact(v), 0) for v in (3, 1)]
                   + [(k3, exact(v), 0) for v in (5, 9)]
                   + [(x0, exact(3), 0)])
    got = csp_tree.oracle_scores(inst, descriptors)
    assert got == _one_by_one(csp_tree, inst, descriptors)
    runs = [descriptors[:3], descriptors[3:5], descriptors[5:7],
            descriptors[7:]]
    assert got == [s for run in runs
                   for s in csp_tree.oracle_scores(inst, run)]
    # a write outside the boundary changes no feature
    assert got[5] == got[6]
    assert len(set(got[:3])) == 3
    empty = AugmentationTree().oracle_scores(inst, descriptors)
    assert empty == [0.0] * len(descriptors)


def test_learned_guidance_is_sound_on_queens():
    prog = queens5()
    query = Query(entry="queens", show=tuple(f"q{i}" for i in range(1, 6)))
    log = TraceLog()
    uniform = solve(prog, query, oracle=UniformOracle(), trace=log)
    tree = AugmentationTree()
    report = tree.train_from_traces(log, seed=5)
    assert report["memory"]["success"] == 10
    guided = solve(prog, query, oracle=LearnedOracle(tree))
    assert _solution_set(guided) == _solution_set(uniform)
    assert guided.stats["complete"]


def test_untrained_guidance_is_sound_too():
    prog = queens5()
    query = Query(entry="queens", show=tuple(f"q{i}" for i in range(1, 6)))
    uniform = solve(prog, query)
    guided = solve(prog, query, oracle=LearnedOracle(AugmentationTree()))
    assert _solution_set(guided) == _solution_set(uniform)


# -- training ----------------------------------------------------------------


def test_train_on_nothing_is_noop():
    tree = AugmentationTree()
    report = tree.train_from_traces([], seed=0)
    assert report["batches"] == 0
    assert tree.frame_encoders == {}


def test_training_is_deterministic():
    logs = fact_traces((5,))
    t1 = AugmentationTree()
    t2 = AugmentationTree()
    r1 = t1.train_from_traces(logs, seed=9)
    r2 = t2.train_from_traces(logs, seed=9)
    assert r1 == r2
    assert np.array_equal(t1.frame_encoders["fact"].w_enc_in,
                          t2.frame_encoders["fact"].w_enc_in)


def test_training_populates_memory_per_solved_instance():
    logs = fact_traces((4, 5, 6))
    tree = AugmentationTree()
    report = tree.train_from_traces(logs, seed=1)
    rows = tree.memory[("fact", "success")]
    assert report["memory"]["success"] >= 3
    assert 3 <= len(rows) <= report["memory"]["success"]
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_deadends_are_remembered():
    text = """
    (def (clash a b)
      (choose a 1 2)
      (choose b 1 2)
      (alldiff a b)
      (equal a b))
    """
    prog = parse(text)
    log = TraceLog()
    solve(prog, Query(entry="clash", show=("a", "b")), trace=log)
    tree = AugmentationTree()
    report = tree.train_from_traces(log, seed=2)
    assert report["memory"]["deadend"] > 0


def test_self_recursive_bridge_doubles_as_spine(fact_tree, monkeypatch,
                                                tmp_path):
    # training fits no combiner; the fold goes through the root
    # definition's untrained spine combiner, which is never saved
    spine = fact_tree.spine_for("fact")
    calls = []
    encode = spine.encode
    monkeypatch.setattr(spine, "encode",
                        lambda x: calls.append(1) or encode(x))
    inst = fact_chain(6)
    leaf = max(expanded(inst), key=lambda f: f.depth)
    assert leaf.depth == 6
    fact_tree.compose_path(inst, leaf)
    # seven frames on the path fold with six combines, all through it
    assert len(calls) == 6
    assert list(fact_tree.spine_combiners) == ["fact"]
    save_bundle(fact_tree, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "enc_fact.aenc", "manifest.json"]


# -- persistence ----------------------------------------------------------------


def test_bundle_roundtrip(tmp_path, fact_tree):
    where = tmp_path / "bundle"
    save_bundle(fact_tree, where)
    assert (where / "manifest.json").exists()
    back = load_bundle(where)
    assert sorted(back.frame_encoders) == sorted(fact_tree.frame_encoders)
    inst = fact_chain(5)
    prog_inst_scores = lambda t: t.oracle_scores(
        inst, [(inst.cell_of(0, "n"), exact(v), 0) for v in (1, 2, 3)])
    assert prog_inst_scores(back) == prog_inst_scores(fact_tree)
    assert back.memory.keys() == fact_tree.memory.keys()
    for key, rows in fact_tree.memory.items():
        assert np.array_equal(back.memory[key], rows)


def test_bundle_manifest_stable(tmp_path, fact_tree):
    a = tmp_path / "a"
    b = tmp_path / "b"
    save_bundle(fact_tree, a)
    save_bundle(fact_tree, b)
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
