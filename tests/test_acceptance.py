"""The ten gate checks, one verdict line per criterion.

Each check re-derives its expected values from the brute-force oracles in
oracles.py (or from values frozen in corpus/*.expected.json, which the
corpus builder computed the same way) and runs at the stated tolerances.
Run order follows the numbering; every test also records a PASS/FAIL line
that pytest replays in the terminal summary.
"""

import json
import shutil
import time
from pathlib import Path

import pytest

import oracles
from conftest import record_verdict
from test_autoenc import plane_dataset

from fifth.autoenc import Autoencoder
from fifth.cli import main
from fifth.hierarchy import AugmentationTree
from fifth.language import demand_loop, instantiate, parse
from fifth.planning import generate_random_csp
from fifth.search import Query, optimize, solve
from fifth.selftest import (
    confluence_sample,
    gradient_sample,
    lattice_law_sample,
)

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

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


def verdict(num, label, ok, detail=""):
    line = f"criterion {num:2d} {label:<22} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    record_verdict(line)
    assert ok, line


def corpus_program(rel):
    return parse((CORPUS / rel).read_text())


def corpus_expected(rel):
    return json.loads((CORPUS / rel).read_text())


def run_corpus_query(rel, **overrides):
    program = corpus_program(rel)
    query = program.query._replace(**overrides)
    if query.minimize is not None:
        return optimize(program, query)
    return solve(program, query)


def canon(solutions):
    return {tuple(sorted(s["cells"].items())) for s in solutions}


def test_criterion_01_lattice_laws():
    t0 = time.monotonic()
    rep = lattice_law_sample()
    took = time.monotonic() - t0
    ok = rep["ok"] and rep["triples"] == 10_000 and took < 5.0
    verdict(1, "lattice laws", ok,
            f"{rep['failures']} failures in {rep['triples']} triples, {took:.2f}s")


def test_criterion_02_confluence():
    t0 = time.monotonic()
    rep = confluence_sample()
    took = time.monotonic() - t0
    ok = (rep["ok"] and rep["networks"] == 200 and rep["orders"] == 20
          and took < 60.0)
    verdict(2, "confluence", ok,
            f"{rep['mismatches']} mismatches over {rep['networks']}x{rep['orders']}, {took:.1f}s")


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    counts = {}
    for n, want in ((4, 2), (5, 10), (6, 4), (8, 92)):
        res = run_corpus_query(f"queens/q{n}.5th")
        got = {tuple(s["cells"][f"q{i}"] for i in range(1, n + 1))
               for s in res.solutions}
        assert got == set(oracles.queens_solutions(n))
        assert len(got) == want
        counts[n] = len(got)

    res = run_corpus_query("crypt/sendmore.5th")
    triples = {(s["cells"]["send"], s["cells"]["more"], s["cells"]["money"])
               for s in res.solutions}
    assert triples == set(oracles.send_more_money_solutions())
    assert triples == {(9567, 1085, 10652)}

    for i in range(50):
        text, meta = generate_random_csp(6, 4, 0.4, seed=3000 + i)
        program = parse(text)
        res = solve(program, program.query)
        got = canon(res.solutions)
        want = {tuple(sorted(a.items())) for a in oracles.csp_solutions(meta)}
        assert got == want, f"csp seed {3000 + i}"
        assert res.stats["complete"]

    took = time.monotonic() - t0
    ok = took < 300.0
    verdict(3, "oracle equivalence", ok,
            f"queens {counts}, send=9567, 50 csps, {took:.1f}s")


def test_criterion_04_unbounded_recursion():
    program = parse(FACT)
    results = {}
    for n, want in ((0, 1), (6, 720), (10, 3628800)):
        res = solve(program, Query(entry="fact", bindings=(("n", n),),
                                   show=("r",), depth=40))
        assert res.solutions == [{"cells": {"r": want}}]
        assert res.stats["expansions"] == n
        results[n] = want

    starved = solve(program, Query(entry="fact", bindings=(("n", 10),),
                                   show=("r",), depth=3))
    assert starved.stats["complete"] is False
    assert starved.solutions == []
    verdict(4, "unbounded recursion", True,
            "fact 0/6/10 exact with n expansions; depth 3 reports incomplete")


def test_criterion_05_logarithmic_hops():
    t0 = time.monotonic()
    program = parse(COUNT)
    hops_seen = {}
    for depth, cap in ((64, 7), (256, 9), (1024, 11)):
        inst = instantiate(program, "count", {"n": depth - 1})
        demand_loop(inst, (inst.cell_of(0, "r"),), 5000, 10_000_000)
        tree = AugmentationTree()
        tree.encoder_for("count").init_weights(3)
        leaf = max((f for f in inst.frames if f.state == "expanded"),
                   key=lambda f: f.depth)
        assert leaf.depth == depth - 1
        _, hops = tree.compose_path(inst, leaf)
        assert hops <= cap
        hops_seen[depth] = hops
    took = time.monotonic() - t0
    ok = took < 10.0
    verdict(5, "logarithmic hops", ok,
            f"hops {hops_seen} within caps 7/9/11, {took:.1f}s")


def test_criterion_06_autoencoder():
    rep = gradient_sample()
    plane = plane_dataset()
    trained = Autoencoder(n_features=10).fit(plane, epochs=1000, seed=7)
    dim = trained.effective_dim(plane)
    sweep = [
        Autoencoder(n_features=10, sparsity_weight=lam)
        .fit(plane, epochs=1000, seed=7)
        .effective_dim(plane)
        for lam in (0.0, 0.01, 0.1)
    ]
    ok = (rep["ok"] and rep["max_rel_error"] < 1e-4
          and dim in (2, 3)
          and sweep == sorted(sweep, reverse=True))
    verdict(6, "autoencoder", ok,
            f"grad err {rep['max_rel_error']:.2e}, plane dim {dim}, sweep {sweep}")


def test_criterion_07_guidance_soundness(tmp_path, capsys):
    train_dir = CORPUS / "csp" / "train"
    eval_dir = CORPUS / "csp" / "eval"
    assert len(list(train_dir.glob("*.5th"))) == 30
    assert len(list(eval_dir.glob("*.5th"))) == 20
    code = main(["measure", str(train_dir), str(eval_dir),
                 "--model", str(tmp_path / "model"), "--seed", "0"])
    payload = json.loads(capsys.readouterr().out)
    rows = payload["instances"]
    agg = payload["aggregate"]
    ok = (code == 0 and payload["trained"] and len(rows) == 20
          and all(r["solutions_equal"] for r in rows))
    verdict(7, "guidance soundness", ok,
            f"20/20 solution sets equal; median nodes uniform "
            f"{agg['median_nodes_uniform']}, learned {agg['median_nodes_learned']} (reported)")


def test_criterion_08_gc_preservation():
    fact_summarized = None
    checked = 0
    for f in sorted(CORPUS.rglob("*.5th")):
        program = parse(f.read_text())
        query = program.query
        if query.minimize is not None:
            plain = optimize(program, query)
            folded = optimize(program, query, gc=True)
            assert plain.objective == folded.objective, f.name
            assert plain.solution == folded.solution, f.name
        else:
            plain = solve(program, query)
            folded = solve(program, query, gc=True)
            assert canon(plain.solutions) == canon(folded.solutions), f.name
        checked += 1
        if f.name == "fact10.5th":
            fact_summarized = folded.stats["summarized"]
    ok = checked >= 58 and fact_summarized is not None and fact_summarized > 0
    verdict(8, "gc preservation", ok,
            f"{checked} corpus programs identical; fact10 summarized {fact_summarized}")


def test_criterion_09_scheduling():
    js = corpus_expected("jobshop/js-3x3-a.expected.json")
    live = oracles.jobshop_optimum(
        [[tuple(op) for op in job] for job in js["jobs"]], js["machines"])
    res = run_corpus_query("jobshop/js-3x3-a.5th")
    assert res.objective == live == js["makespan"]
    assert res.proven

    line = corpus_expected("horizon/line-h4.expected.json")
    best = oracles.lineworld_best_total(0, 4, 4)
    assert best == line["best_total"] == 6
    hres = run_corpus_query("horizon/line-h4.5th")
    assert hres.objective == -6
    assert hres.proven
    verdict(9, "scheduling", True,
            f"js-3x3-a makespan {res.objective} = brute force; line world total 6")


def test_criterion_10_determinism(tmp_path, capsys):
    q5 = str(CORPUS / "queens" / "q5.5th")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", q5, "--out", str(a)]) == 0
    assert main(["solve", q5, "--out", str(b)]) == 0
    solve_same = a.read_bytes() == b.read_bytes()

    code1 = main(["check"])
    out1 = capsys.readouterr().out
    code2 = main(["check"])
    out2 = capsys.readouterr().out
    check_same = code1 == code2 == 0 and out1 == out2

    sub = tmp_path / "sub"
    sub.mkdir()
    for f in sorted((CORPUS / "csp" / "train").glob("*.5th"))[:6]:
        shutil.copy(f, sub / f.name)
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["train", str(sub), "--model", str(m1), "--seed", "4"]) == 0
    capsys.readouterr()
    assert main(["train", str(sub), "--model", str(m2), "--seed", "4"]) == 0
    capsys.readouterr()
    names1 = sorted(p.name for p in m1.iterdir())
    names2 = sorted(p.name for p in m2.iterdir())
    train_same = names1 == names2 and all(
        (m1 / n).read_bytes() == (m2 / n).read_bytes() for n in names1)

    ev = tmp_path / "ev"
    ev.mkdir()
    for f in sorted((CORPUS / "csp" / "eval").glob("*.5th"))[:3]:
        shutil.copy(f, ev / f.name)
    assert main(["measure", str(sub), str(ev), "--model", str(m1),
                 "--seed", "4"]) == 0
    meas1 = capsys.readouterr().out
    assert main(["measure", str(sub), str(ev), "--model", str(m1),
                 "--seed", "4"]) == 0
    meas2 = capsys.readouterr().out
    measure_same = meas1 == meas2

    ok = solve_same and check_same and train_same and measure_same
    verdict(10, "determinism", ok,
            "solve/check/train/measure byte-identical on repeat")
