"""Command line front end.

Four commands share one process model: parse, run, emit JSON, exit.

  solve    run one program's query, print the solution set
  train    solve a corpus with tracing, fit guidance, save the bundle
  measure  rerun an eval corpus under uniform and learned guidance
  check    run the built-in consistency suites

Exit codes: 0 found, 1 usage or parse error, 2 exhausted with proof of
unsatisfiability, 3 exhausted by budget. A report is one line of JSON and
carries no timing fields, so equal seeds give byte-equal output. Only
`train`, `measure`, `check`, `solve --oracle learned` and `solve --trace`
import the guidance stack (`fifth.hierarchy`, `fifth.autoenc`, numpy);
only `measure` imports `statistics`, and only `check` the self-tests
(`fifth.selftest`, `fifth.rng`).
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from fifth.errors import FifthError
from fifth.language import parse
from fifth.search import UniformOracle, optimize, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSAT = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


# perfbench/tracer.py wraps these two names; they import on first call
def load_bundle(path):
    from fifth.hierarchy import load_bundle
    return load_bundle(path)


def save_bundle(tree, path):
    from fifth.hierarchy import save_bundle
    save_bundle(tree, path)


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so main() owns the exit code."""

    def error(self, message):
        raise UsageError(message)


class _NotTaken(argparse.Action):
    """Another command's flag: it consumes its value, so the value cannot
    land in a positional slot, and then fails naming the flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise UsageError(f"unrecognized arguments: {option_string}"
                         f" ({parser.prog} does not take it)")


def _budget(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


_FLAGS = {
    "seed": dict(type=int, default=0),
    "depth": dict(type=_budget, default=None),
    "steps": dict(type=_budget, default=None),
    "nodes": dict(type=_budget, default=None),
    "precision": dict(type=_budget, default=None),
    "oracle": dict(choices=("uniform", "learned"), default="uniform"),
    "model": dict(default=None),
    "trace": dict(action="store_true"),
    "out": dict(default=None),
    "gc": dict(action="store_true"),
}
_BUDGETS = ("depth", "steps", "nodes", "precision")


@functools.lru_cache(maxsize=None)  # built once per process
def _build_parser():
    """Each command takes only the flags it reads; any other is a usage
    error rather than a silent no-op."""
    parser = _Parser(prog="fifth")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, flags, *positional):
        sp = sub.add_parser(name, help=summary)
        for flag, spec in _FLAGS.items():
            if flag in flags:
                sp.add_argument(f"--{flag}", **spec)
            else:
                sp.add_argument(
                    f"--{flag}", action=_NotTaken, help=argparse.SUPPRESS,
                    default=argparse.SUPPRESS,
                    nargs=0 if spec.get("action") == "store_true" else None)
        for arg in positional:
            sp.add_argument(arg)

    command("solve", "run one program",
            (*_BUDGETS, "oracle", "model", "trace", "out", "gc"), "program")
    command("train", "fit guidance from a corpus",
            ("seed", *_BUDGETS, "model", "out"), "corpus")
    command("measure", "compare guided vs unguided",
            ("seed", *_BUDGETS, "model", "out"), "train_dir", "eval_dir")
    command("check", "run self-test suites", ("seed",))
    return parser


def _resolve(path_str):
    """The path as given, else relative to the corpus root (FIFTH_CORPUS)."""
    p = Path(path_str)
    if p.exists():
        return p
    if not p.is_absolute():
        q = Path(os.environ.get("FIFTH_CORPUS", "corpus")) / p
        if q.exists():
            return q
    return p  # caller reports the miss


def _load_program(path_str):
    """The program in the file `path_str` names: UTF-8 text with a query."""
    source = _resolve(path_str)
    if not source.is_file():
        raise UsageError(f"no such file: {path_str}")
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"{path_str} is not UTF-8 text (byte {e.start})")
    program = parse(text)
    if program.query is None:
        raise UsageError(f"{path_str} has no query")
    return program


def _query(program, cfg):
    """The program's query, with each budget flag given in place of its
    query option."""
    return program.query._replace(**{
        flag: getattr(cfg, flag) for flag in _BUDGETS
        if getattr(cfg, flag) is not None})


def _emit(payload, out):
    text = json.dumps(payload, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _run(program, query, oracle, trace=None, gc=False, write_sink=None):
    if query.minimize is not None:
        return optimize(program, query, oracle=oracle, trace=trace,
                        gc=gc, write_sink=write_sink)
    return solve(program, query, oracle=oracle, trace=trace,
                 gc=gc, write_sink=write_sink)


def _found(result):
    if hasattr(result, "objective"):
        return result.objective is not None
    return bool(result.solutions)


def _trace_summary(log):
    outcomes = {"success": 0, "deadend": 0}
    for _, _, label in log.outcomes:
        outcomes[label] += 1
    return {
        "nodes": log.n_nodes,
        "states": len(log.states),
        "outcomes": outcomes,
    }


def cmd_solve(cfg):
    program = _load_program(cfg.program)
    query = _query(program, cfg)
    if cfg.oracle == "learned":
        if cfg.model is None:
            raise UsageError("--oracle learned needs --model")
        from fifth.hierarchy import LearnedOracle
        oracle = LearnedOracle(load_bundle(_resolve(cfg.model)))
    else:
        oracle = UniformOracle()
    log = sink = None
    if cfg.trace:
        from fifth.hierarchy import TraceLog
        log = TraceLog()
        sink = lambda rec: sys.stderr.write(
            json.dumps(rec, sort_keys=True) + "\n")
    result = _run(program, query, oracle, trace=log, gc=cfg.gc,
                  write_sink=sink)
    payload = result.as_json()
    payload["command"] = "solve"
    if log is not None:
        payload["trace"] = _trace_summary(log)
    _emit(payload, cfg.out)
    if _found(result):
        return EXIT_OK
    return EXIT_UNSAT if result.stats["complete"] else EXIT_BUDGET


def _corpus_files(dir_str):
    d = _resolve(dir_str)
    if not d.is_dir():
        raise UsageError(f"no such directory: {dir_str}")
    return sorted(d.glob("*.5th"))


def _fit_bundle(cfg, corpus_dir, model_out):
    """Solve every corpus instance with tracing, fit, save. Returns the
    instance names and the training report."""
    from fifth.hierarchy import AugmentationTree, TraceLog
    files = _corpus_files(corpus_dir)
    if not files:
        raise UsageError(f"no instances in {corpus_dir}")
    names = []
    traces = []
    for f in files:
        program = _load_program(f)
        log = TraceLog()
        _run(program, _query(program, cfg), UniformOracle(), trace=log)
        names.append(f.name)
        traces.append(log)
    tree = AugmentationTree(n_code=8)
    report = tree.train_from_traces(traces, seed=cfg.seed)
    save_bundle(tree, str(model_out))
    return names, report


def cmd_train(cfg):
    if cfg.model is None:
        raise UsageError("train needs --model")
    names, report = _fit_bundle(cfg, cfg.corpus, cfg.model)
    payload = {
        "command": "train",
        "instances": names,
        "model": cfg.model,
        "seed": cfg.seed,
        "report": report,
    }
    _emit(payload, cfg.out)
    return EXIT_OK


def _canon_solutions(solutions):
    out = set()
    for s in solutions:
        out.add(tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(s["cells"].items())
        ))
    return out


def _answers_equal(query, a, b):
    if query.minimize is not None:
        return a.objective == b.objective
    return _canon_solutions(a.solutions) == _canon_solutions(b.solutions)


def cmd_measure(cfg):
    import statistics
    if cfg.model is None:
        raise UsageError("measure needs --model")
    model_dir = Path(cfg.model)
    trained = False
    if not (model_dir / "manifest.json").is_file():
        _fit_bundle(cfg, cfg.train_dir, model_dir)
        trained = True
    from fifth.hierarchy import AugmentationTree, LearnedOracle
    tree = load_bundle(str(model_dir))
    # an empty tree scores every candidate 0.0, so the uniform arm keeps
    # the ascending order and, like the learned arm, runs without the memo
    blank = LearnedOracle(AugmentationTree())
    files = _corpus_files(cfg.eval_dir)
    if not files:
        raise UsageError(f"no instances in {cfg.eval_dir}")
    rows = []
    for f in files:
        program = _load_program(f)
        query = _query(program, cfg)
        uniform = _run(program, query, blank)
        learned = _run(program, query, LearnedOracle(tree))
        rows.append({
            "name": f.name,
            "nodes_uniform": uniform.stats["nodes"],
            "nodes_learned": learned.stats["nodes"],
            "solutions_equal": _answers_equal(query, uniform, learned),
        })
    payload = {
        "command": "measure",
        "model": cfg.model,
        "seed": cfg.seed,
        "trained": trained,
        "instances": rows,
        "aggregate": {
            "n_eval": len(rows),
            "median_nodes_uniform": statistics.median(
                [r["nodes_uniform"] for r in rows]),
            "median_nodes_learned": statistics.median(
                [r["nodes_learned"] for r in rows]),
            "all_solutions_equal": all(r["solutions_equal"] for r in rows),
        },
    }
    _emit(payload, cfg.out)
    return EXIT_OK


def cmd_check(cfg):
    from fifth import selftest
    # reduced sample sizes; the full-size runs live in the test suite
    suites = [
        selftest.lattice_law_sample(n_triples=2_000, seed=cfg.seed + 2024),
        selftest.confluence_sample(n_networks=30, n_orders=8,
                                   seed=cfg.seed + 77),
        selftest.gradient_sample(n_configs=8, seed=cfg.seed + 11),
    ]
    for s in suites:
        print(f"{s['suite']}: {'pass' if s['ok'] else 'FAIL'}")
    return EXIT_OK if all(s["ok"] for s in suites) else EXIT_USAGE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            cfg = parser.parse_args(argv)
        except SystemExit as e:  # argparse's --help exits 0 after printing
            return e.code or 0
        handler = {
            "solve": cmd_solve,
            "train": cmd_train,
            "measure": cmd_measure,
            "check": cmd_check,
        }[cfg.command]
        return handler(cfg)
    except (UsageError, OSError, FifthError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
