"""Command line behavior: exit codes, report shapes, determinism."""

import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from fifth import cli
from fifth.cli import main
from fifth.autoenc import Autoencoder
from fifth.hierarchy import (
    N_FEATURES,
    AugmentationTree,
    load_bundle,
    save_bundle,
)
from fifth.language import MAX_IF_NESTING, instantiate
from fifth.lattice import merge
from fifth.planning import generate_random_csp
from fifth import parse, selftest, solve

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

UNSAT = """\
(def (bad r)
  (const one 1)
  (const two 2)
  (equal one two)
  (const r 0))

(query (bad) (show r))
"""


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(payload, name):
    with open(REPO / "schemas" / name) as fh:
        jsonschema.validate(payload, json.load(fh))


@pytest.fixture
def tiny_corpus(tmp_path):
    d = tmp_path / "train"
    d.mkdir()
    for i, seed in enumerate((11, 22, 33, 44)):
        text, _ = generate_random_csp(4, 3, 0.5, seed)
        (d / f"t-{i}.5th").write_text(text)
    return d


# -- solve -------------------------------------------------------------------


def test_solve_queens4(capsys):
    code, out, _ = run(["solve", CORPUS / "queens" / "q4.5th"], capsys)
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")  # one line of JSON
    payload = json.loads(out)
    check_schema(payload, "solution.schema.json")
    assert len(payload["solutions"]) == 2
    assert payload["stats"]["complete"] is True


def test_solve_missing_file(capsys):
    code, out, err = run(["solve", "corpus/queens/nope.5th"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.5th"
    bad.write_text("(def (broken")
    code, _, err = run(["solve", bad], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["solve", "train"])
def test_a_program_file_that_is_not_utf8_is_an_error_naming_it(
        command, tmp_path, capsys):
    bad = tmp_path / "bad.5th"
    bad.write_bytes(b"\xff(def")
    argv = ([command, bad] if command == "solve"
            else [command, tmp_path, "--model", tmp_path / "m"])
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {bad} is not UTF-8 text (byte 0)"]


def test_solve_no_query(tmp_path, capsys):
    noq = tmp_path / "noq.5th"
    noq.write_text("(def (noq x) (choose x 1 2))")
    code, _, err = run(["solve", noq], capsys)
    assert code == 1
    assert "no query" in err


def test_solve_unsat_exits_2(tmp_path, capsys):
    f = tmp_path / "unsat.5th"
    f.write_text(UNSAT)
    code, out, _ = run(["solve", f], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["solutions"] == []
    assert payload["stats"]["complete"] is True


@pytest.mark.parametrize("text", [
    "(def (m x) (choose x 1 2) (alldiff x x))\n(query (m) (show x))",
    "(def (m x y) (choose x 1 2) (choose y 1 2) (alldiff x y x))\n"
    "(query (m) (show x y))",
    # a call passes one cell to both parameters
    "(def (g a b) (alldiff a b))\n"
    "(def (m x) (choose x 1 2) (call g x x))\n(query (m) (show x))",
], ids=["twice", "x-y-x", "call"])
def test_alldiff_over_a_repeated_cell_exits_2(tmp_path, capsys, text):
    f = tmp_path / "repeat.5th"
    f.write_text(text)
    code, out, _ = run(["solve", f], capsys)
    assert code == 2
    assert json.loads(out)["solutions"] == []


BUDGET_FLAGS = {
    # flag, value, program, exit code, what the report must hold
    "steps": ("--steps", 0, CORPUS / "queens" / "q4.5th", 3,
              {"steps": 0, "complete": False}),
    "nodes": ("--nodes", 1, CORPUS / "queens" / "q8.5th", 3,
              {"nodes": 1, "complete": False}),
    "depth": ("--depth", 0, CORPUS / "fact" / "fact10.5th", 3,
              {"expansions": 0, "complete": False}),
    # x stays [0, 5], an answer only once a width of 5 is allowed
    "precision": ("--precision", 5,
                  "(def (m x) (int x 0 5)) (query (m) (show x))\n", 0,
                  {"complete": True}),
}


@pytest.mark.parametrize("name", sorted(BUDGET_FLAGS))
def test_each_budget_flag_overrides_its_query_option(name, tmp_path, capsys):
    flag, value, program, exit_code, stats = BUDGET_FLAGS[name]
    if isinstance(program, str):
        (tmp_path / "p.5th").write_text(program)
        program = tmp_path / "p.5th"
    code, out, _ = run(["solve", flag, value, program], capsys)
    assert code == exit_code
    payload = json.loads(out)
    assert {k: payload["stats"][k] for k in stats} == stats
    if name == "precision":
        assert payload["solutions"] == [{"cells": {"x": [0, 5]}}]
        assert run(["solve", program], capsys)[0] == 3
    else:
        assert payload["solutions"] == []


UNDER_DETERMINED = {
    # nothing contradicts and nothing is left to branch on
    "unbranched": "(def (m x) (int x 0 5))\n(query (m) (show x))\n",
    # the choose waits in a branch whose condition nothing decides
    "gated-choose": "(def (m c x) (int c 0 5) (if c ((choose x 1 2)) ()))\n"
                    "(query (m) (show x))\n",
    # x is already exact, but either value of c posts x in {1, 2}: the
    # chooses in the dormant branches keep the node from being a leaf
    "gated-exact": "(def (m c x) (int c 0 1) (const x 5)\n"
                   "  (if c ((choose x 1 2)) ((choose x 1 2))))\n"
                   "(query (m) (show x))\n",
}


@pytest.mark.parametrize("name", sorted(UNDER_DETERMINED))
def test_solve_under_determined_exits_3(name, tmp_path, capsys):
    f = tmp_path / "under.5th"
    f.write_text(UNDER_DETERMINED[name])
    code, out, _ = run(["solve", f], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["solutions"] == []
    assert payload["stats"]["complete"] is False


def test_solve_refuted_inner_branch_is_a_leaf(tmp_path, capsys):
    # c stays undecided, but k refutes the only branch that could post a
    # choose, so the root is a leaf and x = 5 is the one solution
    f = tmp_path / "leaf.5th"
    f.write_text("(def (m c x) (int c 0 1) (const k 0) (const x 5)\n"
                 "  (if c ((if k ((cell y) (choose y 1 2)) ())) ()))\n"
                 "(query (m) (show x))\n")
    code, out, _ = run(["solve", f], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [{"cells": {"x": 5}}]
    assert payload["stats"]["complete"] is True


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run(
        ["solve", "--out", target, CORPUS / "queens" / "q4.5th"], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["solutions"]) == 2


def test_solve_repeat_is_byte_identical(capsys):
    code1, out1, _ = run(["solve", CORPUS / "queens" / "q5.5th"], capsys)
    code2, out2, _ = run(["solve", CORPUS / "queens" / "q5.5th"], capsys)
    assert (code1, out1) == (code2, out2)
    assert out1


def test_solve_optimize_program(capsys):
    code, out, _ = run(["solve", CORPUS / "horizon" / "line-h4.5th"], capsys)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "solution.schema.json")
    assert payload["objective"] == -6
    assert payload["proven"] is True


def _pin_chain_program(steps):
    """x in [0, 10] heads two alternating 0/1 chains that meet at the end,
    so x = 0 and x = 1 are refuted only after about 40 propagator steps."""
    lines = ["(def (m x)", "  (int x 0 10)"]
    for c in "zw":
        lines += [f"  (int {c}{i} 0 1)" for i in range(1, 21)]
        lines.append(f"  (alldiff x {c}1)")
        lines += [f"  (alldiff {c}{i - 1} {c}{i})" for i in range(2, 21)]
    lines.append("  (alldiff z20 w20))")
    return "\n".join(lines) + (
        f"\n(query (m) (show x) (precision 10) (steps {steps}) (minimize x))\n")


@pytest.mark.parametrize("steps", [60, 1000])
def test_optimize_pin_out_of_steps_is_not_an_optimum(steps, tmp_path, capsys):
    # the leaf quiesces within the budget, but pinning x at its lower bound
    # runs out of steps before the chains refute it
    f = tmp_path / "pin.5th"
    f.write_text(_pin_chain_program(steps))
    code, out, _ = run(["solve", f], capsys)
    payload = json.loads(out)
    if steps == 1000:
        assert code == 0
        assert (payload["objective"], payload["proven"]) == (2, True)
    else:
        assert code == 3
        assert payload["objective"] is None
        assert payload["stats"]["complete"] is False
        # the node's own 41 steps plus the 60 the pin ran out of
        assert payload["stats"]["steps"] == 41 + 60


def test_solve_gc_preserves_answers(capsys):
    f = CORPUS / "fact" / "fact10.5th"
    _, plain, _ = run(["solve", f], capsys)
    code, folded, _ = run(["solve", "--gc", f], capsys)
    assert code == 0
    a, b = json.loads(plain), json.loads(folded)
    assert a["solutions"] == b["solutions"] == [{"cells": {"r": 3628800}}]
    assert b["stats"]["summarized"] == 10
    assert a["stats"]["summarized"] == 0


def test_solve_trace_summary(capsys):
    code, out, err = run(
        ["solve", "--trace", CORPUS / "queens" / "q4.5th"], capsys)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "solution.schema.json")
    t = payload["trace"]
    assert t["nodes"] == payload["stats"]["nodes"]
    assert t["outcomes"]["success"] == 2
    # stderr carries one JSON record per cell write
    lines = [l for l in err.splitlines() if l]
    assert lines
    rec = json.loads(lines[0])
    assert {"step", "cell", "origin", "old", "new", "propagator"} <= set(rec)


def test_solve_trace_gc_logs_no_folded_frame(tmp_path, capsys):
    # the a = 1 branch runs a count chain that folds before its leaf, so
    # each of the 2 answers logs the root alone; the chain's 4 frames, as
    # they were when the node was logged, would make it 6
    f = tmp_path / "main.5th"
    f.write_text(
        "(def (count n r) (cell nm1) (cell rest) (const one 1)"
        " (sum nm1 one n)"
        " (if n ((call count nm1 rest) (sum rest one r)) ((const r 0))))\n"
        "(def (main n r a) (choose a 0 1)"
        " (if a ((call count n r)) ((const r 7))))\n"
        "(query (main (n 3)) (show r a))\n")
    code, out, _ = run(["solve", "--trace", "--gc", f], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [{"cells": {"r": 7, "a": 0}},
                                    {"cells": {"r": 3, "a": 1}}]
    assert payload["stats"]["summarized"] == 4
    assert payload["trace"]["outcomes"]["success"] == 2


def test_learned_oracle_requires_model(capsys):
    code, _, err = run(
        ["solve", "--oracle", "learned", CORPUS / "queens" / "q4.5th"],
        capsys)
    assert code == 1
    assert "--model" in err


def test_corpus_env_resolution(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FIFTH_CORPUS", str(CORPUS))
    code, out, _ = run(["solve", "queens/q4.5th"], capsys)
    assert code == 0
    assert len(json.loads(out)["solutions"]) == 2


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["solve"],
    ["measure", "only-one-dir"],
])
def test_usage_errors(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [["-h"], ["solve", "--help"]])
def test_help_returns_0(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.startswith("usage: fifth")


# per command: its positional arguments, every flag it reads with the value
# it parses to, and a flag it does not read
COMMAND_FLAGS = {
    "solve": ({"program": "q.5th"}, [
        ("--depth", "3", 3), ("--steps", "9", 9), ("--nodes", "5", 5),
        ("--precision", "2", 2), ("--oracle", "learned", "learned"),
        ("--model", "m", "m"), ("--trace", None, True),
        ("--out", "o.json", "o.json"), ("--gc", None, True)], ["--seed", "9"]),
    "train": ({"corpus": "c"}, [
        ("--seed", "4", 4), ("--depth", "3", 3), ("--steps", "9", 9),
        ("--nodes", "5", 5), ("--precision", "2", 2),
        ("--model", "m", "m"), ("--out", "o.json", "o.json")], ["--gc"]),
    "measure": ({"train_dir": "t", "eval_dir": "e"}, [
        ("--seed", "4", 4), ("--depth", "3", 3), ("--steps", "9", 9),
        ("--nodes", "5", 5), ("--precision", "2", 2),
        ("--model", "m", "m"), ("--out", "o.json", "o.json")], ["--trace"]),
    "check": ({}, [("--seed", "4", 4)], ["--out", "r.json"]),
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, capsys,
                                                     monkeypatch, tmp_path):
    positional, reads, ignored = COMMAND_FLAGS[command]
    argv = [command, *positional.values()]
    for flag, text, _ in reads:
        argv += [flag] if text is None else [flag, text]
    cfg = cli._build_parser().parse_args(argv)
    assert vars(cfg) == {"command": command, **positional,
                         **{flag[2:]: value for flag, _, value in reads}}
    monkeypatch.chdir(tmp_path)
    code, out, err = run([command, *positional.values(), *ignored], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized arguments")
    assert list(tmp_path.iterdir()) == []


def test_a_stray_flag_keeps_its_value_out_of_the_positional_slot(capsys):
    code, out, err = run(
        ["solve", "--seed", "9", CORPUS / "queens/q4.5th"], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "--seed" in err and "q4.5th" not in err


# -- train ---------------------------------------------------------------------


def test_train_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run(["train", d, "--model", tmp_path / "m"], capsys)
    assert code == 1
    assert "no instances" in err


def test_train_requires_model(tiny_corpus, capsys):
    code, _, err = run(["train", tiny_corpus], capsys)
    assert code == 1
    assert "--model" in err


def test_train_small_corpus(tiny_corpus, tmp_path, capsys):
    model = tmp_path / "model"
    code, out, _ = run(
        ["train", tiny_corpus, "--model", model, "--seed", 5], capsys)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "train_report.schema.json")
    assert len(payload["instances"]) == 4
    losses = payload["report"]["losses"]
    assert losses and all(math.isfinite(v) for v in losses.values())
    assert (model / "manifest.json").is_file()

    # the bundle drives a solve through the learned oracle
    code, out, _ = run(
        ["solve", "--oracle", "learned", "--model", model,
         tiny_corpus / "t-0.5th"], capsys)
    assert code == 0
    assert json.loads(out)["stats"]["complete"] is True


def test_train_same_seed_bit_identical(tiny_corpus, tmp_path, capsys):
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    run(["train", tiny_corpus, "--model", m1, "--seed", 9], capsys)
    run(["train", tiny_corpus, "--model", m2, "--seed", 9], capsys)
    files1 = sorted(p.name for p in m1.iterdir())
    files2 = sorted(p.name for p in m2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (m1 / name).read_bytes() == (m2 / name).read_bytes()


# -- measure -------------------------------------------------------------------


def test_measure_trains_when_model_missing(tiny_corpus, tmp_path, capsys):
    eval_dir = tmp_path / "eval"
    eval_dir.mkdir()
    for i, seed in enumerate((55, 66, 77)):
        text, _ = generate_random_csp(4, 3, 0.5, seed)
        (eval_dir / f"e-{i}.5th").write_text(text)
    model = tmp_path / "fresh-model"
    code, out, _ = run(
        ["measure", tiny_corpus, eval_dir, "--model", model, "--seed", 2],
        capsys)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "measure_report.schema.json")
    assert payload["trained"] is True
    assert payload["aggregate"]["n_eval"] == 3
    assert payload["aggregate"]["all_solutions_equal"] is True
    assert (model / "manifest.json").is_file()


def test_measure_untrained_bundle_matches_uniform(tiny_corpus, tmp_path,
                                                  capsys):
    """A bundle with no memory scores every candidate 0.0, so both runs
    explore the same tree."""
    blank = tmp_path / "blank"
    save_bundle(AugmentationTree(n_code=8), str(blank))
    code, out, _ = run(
        ["measure", tiny_corpus, tiny_corpus, "--model", blank], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["trained"] is False
    for row in payload["instances"]:
        assert row["nodes_learned"] == row["nodes_uniform"]
        assert row["solutions_equal"] is True


def _truncate(path, keep):
    data = path.read_bytes()
    path.write_bytes(data[:keep(len(data))])


def _edit_manifest(path, change):
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


def _old_layout(manifest):
    manifest["spine_bridges"] = []
    manifest["memory"] = {
        d: [{"label": label, "vector": row}
            for label, rows in by_label.items() for row in rows]
        for d, by_label in manifest["memory"].items()}


def _narrow_memory(manifest):
    for by_label in manifest["memory"].values():
        for rows in by_label.values():
            rows[:] = [row[:-1] for row in rows]


BAD_BUNDLES = {
    "truncated manifest": ("manifest.json",
                           lambda p: _truncate(p, lambda n: n // 2)),
    "manifest missing a key": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m.pop("definitions"))),
    "old layout": ("manifest.json", lambda p: _edit_manifest(p, _old_layout)),
    "checkpoint cut in its header": ("enc_csp.aenc",
                                     lambda p: _truncate(p, lambda n: 40)),
    "checkpoint cut in its arrays": ("enc_csp.aenc",
                                     lambda p: _truncate(p, lambda n: n - 8)),
    "memory rows too narrow": ("manifest.json", lambda p: _edit_manifest(
        p, _narrow_memory)),
    "frame encoder too wide": ("enc_csp.aenc", lambda p: Autoencoder(
        n_features=N_FEATURES + 1, n_code=8).save(p)),
    "frame encoder with a short code": ("enc_csp.aenc", lambda p: Autoencoder(
        n_features=N_FEATURES, n_code=7).save(p)),
}


@pytest.mark.parametrize("case", sorted(BAD_BUNDLES))
def test_bad_bundle_is_an_error_naming_the_file(case, tiny_corpus, tmp_path,
                                               capsys):
    model = tmp_path / "model"
    assert run(["train", tiny_corpus, "--model", model], capsys)[0] == 0
    name, damage = BAD_BUNDLES[case]
    damage(model / name)
    for argv in (["solve", "--oracle", "learned", "--model", model,
                  tiny_corpus / "t-0.5th"],
                 ["measure", tiny_corpus, tiny_corpus, "--model", model]):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and name in err
        assert "retrain" in err


def _add_unit_activity(path):
    # checkpoint headers used to carry each code unit's training activity
    header, rest = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["unit_activity"] = [0.5] * fields["layers"][2]
    path.write_bytes(json.dumps(fields, sort_keys=True,
                                separators=(",", ":")).encode()
                     + b"\n" + rest)


def test_bundle_with_bridges_loads_and_scores_alike(tiny_corpus, tmp_path,
                                                     capsys):
    """Bundles used to also hold a trained bridge per parent/child
    definition pair, listed under `bridges`; loading ignores them."""
    model = tmp_path / "model"
    assert run(["train", tiny_corpus, "--model", model], capsys)[0] == 0
    plain = load_bundle(model)
    Autoencoder(n_features=16, n_code=8).init_weights(1).save(
        model / "bridge_csp__csp.aenc")
    _edit_manifest(model / "manifest.json",
                   lambda m: m.update(bridges=["csp:csp"]))
    for checkpoint in model.glob("*.aenc"):
        _add_unit_activity(checkpoint)
    with_bridges = load_bundle(model)
    assert sorted(with_bridges.frame_encoders) == sorted(plain.frame_encoders)
    scored = []

    class Both:
        def scores(self, inst, descriptors):
            got = with_bridges.oracle_scores(inst, descriptors)
            assert got == plain.oracle_scores(inst, descriptors)
            scored.extend(got)
            return got

    for f in sorted(tiny_corpus.glob("*.5th")):
        program = parse(f.read_text())
        solve(program, program.query, oracle=Both())
    assert len(set(scored)) > 1


# -- check ---------------------------------------------------------------------


def test_check_passes_fresh(capsys):
    code, out, _ = run(["check"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith(": pass") for line in lines)


def test_check_catches_injected_fault(monkeypatch, capsys):
    def bad(a, b):
        if a.kind == "nothing" and b.kind != "nothing":
            return a  # wrong: discards b's information
        return merge(a, b)

    monkeypatch.setattr(selftest, "merge", bad)
    code, out, _ = run(["check"], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flag,value", [
    ("--nodes", -1),
    ("--depth", -5),
    ("--steps", -1),
])
def test_solve_negative_budget_is_a_usage_error(flag, value, capsys):
    code, out, err = run(
        ["solve", flag, value, CORPUS / "queens" / "q4.5th"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and flag in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_non_finite_precision_is_a_usage_error(value, capsys):
    # it used to exit 0 and report the declared range as the solution
    code, out, err = run(
        ["solve", f"--precision={value}", CORPUS / "queens" / "q4.5th"],
        capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and "--precision" in err and value in err


def test_solve_negative_query_option_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "neg.5th"
    f.write_text("(def (t x) (choose x 1 2))\n(query (t) (show x) (depth -5))\n")
    code, out, err = run(["solve", f], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and "2:21" in err


@pytest.mark.parametrize("program,where", [
    # a NaN constant used to contradict its own equality and exit 2
    ("(def (t k) (cell y) (const k nan) (equal k y))\n(query (t) (show k))\n",
     "1:30"),
    # a bare NaN constant used to print as NaN, which is not JSON
    ("(def (t k) (const k nan))\n(query (t) (show k))\n", "1:21"),
    ("(def (t k) (const k 1e400))\n(query (t) (show k))\n", "1:21"),
    ("(def (t k) (equal k k))\n(query (t (k inf)) (show k))\n", "2:14"),
])
def test_solve_non_finite_literal_is_a_parse_error(program, where, tmp_path,
                                                  capsys):
    f = tmp_path / "nonfinite.5th"
    f.write_text(program)
    code, out, err = run(["solve", f], capsys)
    assert code == 1
    assert out == ""
    assert "expected integer" in err and where in err


FACT = """\
(def (fact n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call fact nm1 rest)
     (product n rest r))
    ((const r 1))))

(query (fact (n {n})) (show r) (depth {depth}))
"""

def test_solve_a_target_past_the_limit_cuts_its_branch(tmp_path, capsys):
    # 21! is past 2^62: no answer, and no proof there is none
    f = tmp_path / "fact21.5th"
    f.write_text(FACT.format(n=21, depth=40))
    code, out, _ = run(["solve", f], capsys)
    assert code == 3
    payload = json.loads(out)
    check_schema(payload, "solution.schema.json")
    assert payload["solutions"] == []
    assert payload["stats"]["complete"] is False


def test_solve_deep_overflow_under_gc_cuts_its_branch(tmp_path, capsys):
    f = tmp_path / "fact5000.5th"
    f.write_text(FACT.format(n=5000, depth=5010))
    code, out, _ = run(["solve", "--gc", f], capsys)
    assert code == 3
    payload = json.loads(out)
    check_schema(payload, "solution.schema.json")
    assert payload["solutions"] == []
    # every frame expands before the products overflow on the way back up;
    # the node is cut, so nothing is left to fold
    assert payload["stats"]["expansions"] == 5000
    assert payload["stats"]["summarized"] == 0


LESSEQ = "(def (f a c) (lesseq a c)) (query (f {}) (show c){})\n"
PRODUCT = ("(def (f a b c) (int c 9007199254740995 9007199254740997)"
           " (const b 1) (product a b c)) (query (f) (show a c){})\n")
NUMERIC = {
    # a <= c at 2^53 + 1 and 2^60 + 1, where binary64 rounds the bound
    "lesseq-2^53+1": (LESSEQ.format(
        "(a 9007199254740993) (c 9007199254740993)", ""), 0,
        [{"c": 9007199254740993}]),
    "lesseq-2^60+1": (LESSEQ.format(
        "(a 1152921504606846977) (c 1152921504606846977)", ""), 0,
        [{"c": 1152921504606846977}]),
    # c >= 2^62 - 1 keeps 2^62 - 1 itself
    "lesseq-2^62-1-exact": (LESSEQ.format(
        "(a 4611686018427387903) (c 4611686018427387903)", ""), 0,
        [{"c": 4611686018427387903}]),
    # c >= 2^62 - 1 is open above, so no precision pins it, as none pins
    # c >= 5
    "lesseq-2^62-1": (LESSEQ.format("(a 4611686018427387903)",
                                    " (precision 1)"), 3, []),
    "lesseq-5": (LESSEQ.format("(a 5)", " (precision 1)"), 3, []),
    # a = c / 1 over three integers past 2^53 stays three integers wide
    "product-under-determined": (PRODUCT.format(""), 3, []),
    "product-range": (PRODUCT.format(" (precision 2)"), 0, [{
        "a": [9007199254740995, 9007199254740997],
        "c": [9007199254740995, 9007199254740997]}]),
    # a value computed at or past 2^62 cuts its branch: no answer, exit 3
    "product-overflows": ("(def (f a b c) (const a 2305843009213693952)"
                          " (const b 4) (product a b c))"
                          " (query (f) (show c))\n", 3, []),
    # 2a = 2^63 - 2, so no x solves y = a + x = 2a; a clamp made y and 2a
    # both read 2^62 and printed x = 1, 2 and 3
    "sum-overflow-equal": ("(def (f a d x) (const a 4611686018427387903)"
                           " (sum a a d) (int x 0 3) (choose x 0 1 2 3)"
                           " (cell y) (sum a x y) (equal y d))"
                           " (query (f) (show x))\n", 3, []),
    # 2a differs from a + b, yet a clamp made both read 2^62
    "sum-overflow-differ": ("(def (f a b c) (const a 4611686018427387903)"
                            " (const b 4611686018427387902) (cell d) (cell e)"
                            " (sum a a d) (sum a b e) (equal d e))"
                            " (query (f) (show a))\n", 3, []),
    # each step doubles the bit length of x's lower bound, until it passes
    # the limit
    "product-squaring": ("(def (f x y) (const two 2) (lesseq two x)"
                         " (product x x y) (product y y x))"
                         " (query (f) (show x y))\n", 3, []),
    # y = 0 needs w = 2^62, so pinning y there overflows: that leaf is cut,
    # not searched above 0, so y = 1 is found but not proven optimal
    "minimize-pin-overflows": ("(def (f x y w) (choose x 0 1) (int y 0 3)"
                               " (lesseq x y) (const m 4611686018427387903)"
                               " (const one 1) (cell u) (sum u y m)"
                               " (sum u one w)) (query (f) (show x)"
                               " (minimize y))\n", 0, [{"x": 1}]),
    # y <= x has no minimum: nothing to pin, so no proven optimum
    "minimize-open-below": ("(def (f x y) (int x 0 3) (choose x 0 1 2 3)"
                            " (lesseq y x)) (query (f) (show x)"
                            " (minimize y))\n", 3, []),
    # nothing bounds y at all: no minimum either, so no proven optimum
    "minimize-unbounded": ("(def (f x y) (choose x 1 2)) (query (f)"
                           " (show x) (minimize y))\n", 3, []),
}


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_solve_integers_stay_exact_at_any_magnitude(name, tmp_path, capsys):
    program, exit_code, solutions = NUMERIC[name]
    f = tmp_path / "numeric.5th"
    f.write_text(program)
    code, out, err = run(["solve", f], capsys)
    assert code == exit_code
    assert err == ""
    assert [s["cells"] for s in json.loads(out)["solutions"]] == solutions


@pytest.mark.parametrize("program,literal,message", [
    # decimal literals: there are none
    ("(def (f a b c) (const a 0.1) (const b 0.2) (const c 0.3) (sum a b c))"
     " (query (f) (show a))", "0.1", "expected integer, got '0.1'"),
    ("(def (f x) (cell y) (const y 2) (product y y x))"
     " (query (f (x 4.0000000001)) (show x))", "4.0000000001",
     "expected integer, got '4.0000000001'"),
    ("(def (f a b c) (const c 1e-320) (const b 1e300) (product a b c))"
     " (query (f) (show a))", "1e-320", "expected integer, got '1e-320'"),
    ("(def (f x a b c) (const a 0.0000000009) (const b 0) (equal x a)"
     " (equal x b)) (query (f) (show x))", "0.0000000009",
     "expected integer, got '0.0000000009'"),
    ("(def (f x) (int x 0 10)) (query (f) (show x) (precision 0.5))", "0.5",
     "expected integer, got '0.5'"),
    # integer literals at or past ±2^62, where a computed value overflows
    ("(def (f a b c) (const a 10000000000000000000) (const b 1) (sum a b c))"
     " (query (f) (show c))", "10000000000000000000",
     "integer literal out of range"),
    ("(def (f a c) (lesseq a c)) (query (f (a 5000000000000000000)) (show c))",
     "5000000000000000000", "integer literal out of range"),
    ("(def (f x) (const x 99999999999999999999999)) (query (f) (show x))",
     "99999999999999999999999", "integer literal out of range"),
    ("(def (f x) (choose x 1 4611686018427387904)) (query (f) (show x))",
     "4611686018427387904", "integer literal out of range"),
    ("(def (f x) (int x -4611686018427387904 0)) (query (f) (show x))",
     "-4611686018427387904", "integer literal out of range"),
], ids=["decimal-sum", "decimal-binding", "decimal-tiny", "decimal-tol",
        "decimal-precision", "sum-10^19", "binding-5e18", "const-10^23",
        "choose-2^62", "int-minus-2^62"])
def test_solve_non_integer_literal_is_a_parse_error(program, literal, message,
                                                    tmp_path, capsys):
    f = tmp_path / "literal.5th"
    f.write_text(program + "\n")
    code, out, err = run(["solve", f], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: 1:{program.index(' ' + literal) + 2}: {message}"]


def test_solve_undecided_gate_exits_3_without_expanding(tmp_path, capsys):
    f = tmp_path / "fact-unbound.5th"
    f.write_text(FACT.replace("(fact (n {n}))", "(fact)").format(depth=40))
    code, out, _ = run(["solve", f], capsys)
    assert code == 3
    payload = json.loads(out)
    check_schema(payload, "solution.schema.json")
    assert payload["solutions"] == []
    assert payload["stats"]["complete"] is False
    assert payload["stats"]["expansions"] == 0


def _if_tower(depth):
    """`depth` ifs nested on x, innermost (const y 1)."""
    body = "(const y 1)"
    for _ in range(depth):
        body = f"(if x ({body}) ())"
    return body


def _nested_ifs(depth):
    return f"(def (f x y) {_if_tower(depth)})\n(query (f (x 1)) (show y))\n"


@pytest.mark.parametrize("program", [
    "(def (f x) " + "(" * 1200 + ")" * 1200 + ")\n(query (f) (show x))\n",
    _nested_ifs(400),
], ids=["parens-1200", "ifs-400"])
def test_solve_deep_nesting_is_a_parse_error(program, tmp_path, capsys):
    f = tmp_path / "deep.5th"
    f.write_text(program)
    code, out, err = run(["solve", f], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_solve_hundred_nested_ifs(tmp_path, capsys):
    f = tmp_path / "nested.5th"
    f.write_text(_nested_ifs(100))
    code, out, _ = run(["solve", f], capsys)
    assert code == 0
    assert json.loads(out)["solutions"] == [{"cells": {"y": 1}}]


# the tower's x decided when the body runs, by a const, in the root or in
# a frame that demand expands; `_nested_ifs` only binds it in the query
DECIDED_TOWER = {
    "root": "(def (f y) (const x 1) {}) (query (f) (show y))",
    "frame": "(def (f y) (const x 1) {}) (def (g y) (call f y))"
             " (query (g) (show y))",
}


@pytest.mark.parametrize("flags", [[], ["--trace"]], ids=["plain", "trace"])
@pytest.mark.parametrize("where", ["root", "frame"])
def test_ifs_nested_to_the_limit_open_in_place(tmp_path, capsys, where,
                                               flags):
    # opening a decided `if` recurses once per level, within the stack
    tower = _if_tower(MAX_IF_NESTING)
    root = parse(DECIDED_TOWER["root"].format(tower))
    assert instantiate(root, "f").dormant == []  # opened as it attached
    answers = []
    for name, text in ((where, DECIDED_TOWER[where].format(tower)),
                       ("bound", _nested_ifs(MAX_IF_NESTING))):
        path = tmp_path / f"{name}.5th"
        path.write_text(text)
        code, out, _ = run(["solve", *flags, path], capsys)
        assert code == 0
        answers.append(json.loads(out)["solutions"])
    assert answers[0] == answers[1] == [{"cells": {"y": 1}}]


# -- hostile inputs ----------------------------------------------------------

SOUP = ["(", "(", ")", ")", "def", "query", "show", "cell", "int", "const",
        "sum", "product", "equal", "lesseq", "alldiff", "choose", "if", "call",
        "depth", "steps", "precision", "minimize", "a", "b", "n", "r", "t",
        ";", "\n"]
NUMBERS = ["0", "1", "-1", "2", "3", "2.5", "-0.5", "1e400", "nan", "inf",
           "99999", "4611686018427387904", "-4611686018427387905"]
MUTATED = sorted(
    p for p in CORPUS.rglob("*.5th")
    if "csp" not in p.parts or p.name in ("train-00.5th", "eval-00.5th"))
# every run starts from small budgets; fuzzed flags come after and win
BUDGETS = ["--depth", "30", "--steps", "5000", "--nodes", "60"]
FLAG_VALUES = st.sampled_from(["0", "1", "7", "40", "-1", "x", "1e3", ""])
FLAGS = st.one_of(
    st.sampled_from([["--gc"], ["--trace"], ["--oracle", "learned"],
                     ["--oracle", "bogus"], ["--model", "no/such/bundle"],
                     ["--frobnicate"], ["--steps"]]),
    st.tuples(st.sampled_from(["--steps", "--nodes", "--depth", "--seed"]),
              FLAG_VALUES).map(list),
    st.tuples(st.just("--precision"),
              st.sampled_from(["nan", "inf", "-1", "0.5", "x"])).map(list),
)


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


@st.composite
def hostile_programs(draw):
    """Token soup, or a corpus program with a few atoms swapped: a number for
    an odd number, a name or keyword for another one of the program.
    Parentheses stay balanced, so many mutants get past the parser."""
    if draw(st.integers(0, 2)) == 0:
        return " ".join(draw(st.lists(st.sampled_from(SOUP + NUMBERS),
                                      max_size=40)))
    text = draw(st.sampled_from(MUTATED)).read_text()
    toks = re.findall(r"[()]|[^\s()]+", text)
    atoms = [i for i, t in enumerate(toks) if t not in "()"]
    words = sorted({toks[i] for i in atoms if not _is_number(toks[i])})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(atoms))
        pool = NUMBERS if _is_number(toks[i]) else words
        toks[i] = draw(st.sampled_from(pool))
    return " ".join(toks)


def _main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(hostile_programs(), st.lists(FLAGS, max_size=3))
def test_hostile_programs_and_flags_exit_cleanly(tmp_path_factory, text,
                                                 flags):
    f = tmp_path_factory.getbasetemp() / "hostile.5th"
    f.write_text(text)
    argv = ["solve", *BUDGETS, *(a for flag in flags for a in flag), str(f)]
    assert _main_quietly(argv) in (0, 1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(
    ["solve", "train", "measure", "bogus", "--gc", "--model", "--nodes",
     "--steps", "x", "-1", "no/such.5th", "no/such/dir", "--help", "-h"]),
    max_size=6))
def test_hostile_argv_exits_cleanly(argv):
    assert _main_quietly(argv) in (0, 1, 2, 3)


HUGE_INT = (
    "(def (csp x0 x1 b h) (choose x0 0 1 2 3) (choose x1 0 1 2 3)"
    " (const h 9007199254740993) (lesseq h b) (alldiff x0 x1))"
    " (query (csp) (show x0 x1))\n")


@pytest.mark.parametrize("command", ["train", "solve-trace", "solve-learned"])
def test_guidance_reads_an_integer_past_float_range(command, tmp_path,
                                                    capsys):
    """Boundary cells holding an int past binary64's exact range (2^53 + 1)
    and a range open above it are featurized like any other. A literal past
    2^62 is a parse error, and a computed value there cuts its branch, so
    no cell holds an int past binary64's range itself."""
    corpus = tmp_path / "huge"
    corpus.mkdir()
    program = corpus / "huge.5th"
    program.write_text(HUGE_INT)
    code, out, _ = run(["solve", program], capsys)
    assert code == 0
    unguided = json.loads(out)["solutions"]
    assert len(unguided) == 12
    model = tmp_path / "model"
    argv = {
        "train": ["train", corpus, "--model", model],
        "solve-trace": ["solve", "--trace", program],
        "solve-learned": ["solve", "--oracle", "learned", "--model", model,
                          program],
    }[command]
    if command == "solve-learned":
        assert run(["train", corpus, "--model", model], capsys)[0] == 0
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert len(out.splitlines()) == 1
    payload = json.loads(out)
    if command == "train":
        assert payload["report"]["memory"]["success"] == len(unguided)
    else:
        assert sorted(map(json.dumps, payload["solutions"])) \
            == sorted(map(json.dumps, unguided))


# -- fresh interpreters ------------------------------------------------------
# `fifth.cli` imports the guidance stack (`fifth.hierarchy`, `fifth.autoenc`,
# numpy), the self-tests and the planning emitters only on the paths that use
# them. In this process another test may have loaded them already, so these
# cases each start a new interpreter.

SOLVE_UNGUIDED = """\
import sys
from fifth.cli import main
code = main(["solve", "corpus/queens/q4.5th", "--out", sys.argv[1]])
print(code, [m for m in ("numpy", "fifth.hierarchy", "fifth.autoenc",
                         "dataclasses", "fifth.planning", "fifth.selftest",
                         "statistics")
             if m in sys.modules])
"""


def _fresh(args):
    path = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], cwd=REPO,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_solve_without_guidance_loads_only_the_solve_path(tmp_path):
    out = tmp_path / "q4.json"
    done = _fresh(["-c", SOLVE_UNGUIDED, out])
    assert done.stdout == "0 []\n", done.stderr
    assert len(json.loads(out.read_text())["solutions"]) == 2


def test_each_public_name_is_exported_once_from_its_module():
    import fifth
    assert len(set(fifth.__all__)) == len(fifth.__all__)
    for name in fifth.__all__:
        home = importlib.import_module(f"fifth.{fifth._HOME[name]}")
        assert getattr(fifth, name) is getattr(home, name), name
    done = _fresh(["-c", "import sys, fifth; print(sorted("
                   "m for m in sys.modules if m.startswith('fifth.')))"])
    assert done.stdout == "[]\n", done.stderr


@pytest.fixture(scope="module")
def fact_model(tmp_path_factory):
    model = tmp_path_factory.mktemp("fact") / "model"
    assert main(["train", str(CORPUS / "fact"), "--model", str(model),
                 "--out", str(model.parent / "report.json")]) == 0
    return model


@pytest.mark.parametrize("argv", [
    ["train", "corpus/fact", "--model", "{tmp}/model"],
    ["measure", "corpus/fact", "corpus/fact", "--model", "{tmp}/model"],
    ["solve", "--oracle", "learned", "--model", "{model}",
     "corpus/fact/fact10.5th"],
    ["solve", "--trace", "corpus/fact/fact10.5th"],
    ["check"],
], ids=["train", "measure", "solve-learned", "solve-trace", "check"])
def test_guidance_entry_points_run_in_a_fresh_interpreter(argv, fact_model,
                                                          tmp_path):
    argv = [a.format(tmp=tmp_path, model=fact_model) for a in argv]
    done = _fresh(["-m", "fifth.cli", *argv])
    assert done.returncode == 0, done.stderr
    if argv[0] != "check":
        assert len(done.stdout.splitlines()) == 1
        assert json.loads(done.stdout)["command"] == argv[0]
