#!/usr/bin/env python3
"""Layered benchmark for the fifth engine.

    python3 perfbench/run.py --workload search-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run generates the workload's inputs from the seed, measures set-up in
fresh processes, then drives the queries through `fifth.cli.main` in this
single process, in passes, until `--seconds` are used up. Every answer is
checked against an independent oracle. With `--trace 0` the passes run the
engine untouched and the run reports the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and the run reports the
per-layer metrics from the traced ones. Times are in reference seconds
(see calibrate.py), with raw wall times recorded beside them. The metric
names and units are the ones declared in BENCHMARK.json. `--workload all` runs each workload in its
own fresh process, one after the other.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with run metadata, goes to
perfbench/out/results/. See perfbench/NOTES.md for what each metric means.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate, speed_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("search-mix", "deep-recursion", "guided-csp")
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
REQUIRED = ("BENCHMARK.json", "src/fifth/cli.py", "tests/oracles.py",
            "corpus/queens/q8.expected.json", "schemas/solution.schema.json",
            "schemas/train_report.schema.json")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def measure_setup(workload):
    """Import + parse + instantiate in fresh interpreters, one after the
    other: (reference seconds, raw seconds) per interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + [
        str(p) for p in workload.programs]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout)
        times.append((probe["setup_s"] * REFERENCE_S / probe["calibration_s"],
                      probe["setup_s"]))
    return times


def tail(samples):
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it, and the share of samples at or below."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Runner:
    def __init__(self, workload, work, tracer):
        import fifth.cli
        import jsonschema
        import workloads

        self.cli = fifth.cli
        self.workload = workload
        self.check = workloads.check
        self.outdir = work / "out"
        self.outdir.mkdir(exist_ok=True)
        self.tracer = tracer
        self.validators = {
            kind: jsonschema.Draft7Validator(json.loads(
                (ROOT / "schemas" / f"{schema}.schema.json").read_text()))
            for kind, schema in (("solve", "solution"),
                                 ("train", "train_report"))}

    def run_pass(self, traced):
        """One pass over every query; checks happen after the clock stops."""
        tracer = self.tracer if traced else None
        queries = self.workload.queries
        outs = [self.outdir / f"{i:03d}.json" for i in range(len(queries))]
        for out in outs:
            out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        raw = []
        samples = []
        clock = time.perf_counter
        try:
            for i, (q, out) in enumerate(zip(queries, outs)):
                # each query starts with no garbage left by the one before,
                # as in the fresh process a user's `fifth solve` gets
                gc.collect()
                samples.append(calibrate())
                if tracer is not None:
                    tracer.query = i
                argv = q.argv + ["--out", str(out)]
                error = None
                start = clock()
                try:
                    code = self.cli.main(argv)
                except Exception as e:  # a crash is a failed query, not a stop
                    code = None
                    error = f"{type(e).__name__}: {e}"[:200]
                raw.append((clock() - start, code, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
        samples.append(calibrate())
        result = self._judge(raw, outs, traced, speed_factors(samples))
        result["calibration_s"] = samples
        return result

    def _judge(self, raw, outs, traced, factors):
        digest = hashlib.sha256()
        stats = {"nodes": 0, "steps": 0, "expansions": 0, "summarized": 0}
        results = []
        for q, out, factor, (elapsed, code, error) in zip(
                self.workload.queries, outs, factors, raw):
            payload = json.loads(out.read_text()) if out.is_file() else None
            if error is not None:
                status, reason = "raised", error
            else:
                reason = self.check(q, code, payload, self.validators)
                status = "ok" if reason is None else "wrong"
            if payload is not None:
                payload.pop("model", None)  # a path, not an answer
                for key in stats:
                    stats[key] += payload.get("stats", {}).get(key, 0)
            digest.update(json.dumps(
                [q.qid, code, error and error.split(":")[0], payload],
                sort_keys=True).encode())
            results.append({"qid": q.qid, "kind": q.kind,
                            "seconds": elapsed * factor, "raw_seconds": elapsed,
                            "exit": code, "status": status, "reason": reason})
        # a pass's wall time is its queries' time, without the collections,
        # calibrations and checks between them
        return {"traced": traced, "results": results, "factors": factors,
                "wall": sum(r["seconds"] for r in results),
                "raw_wall": sum(r["raw_seconds"] for r in results),
                "stats": stats, "digest": digest.hexdigest()}


def timings(plain, setup, key):
    """Timing metrics over the untraced passes, from the per-query times
    under `key`. Returns them, the per-query time lists and the tail's
    percentile."""
    per_query = {}
    train = []
    for p in plain:
        for i, r in enumerate(p["results"]):
            if r["kind"] == "train":
                train.append(r[key])
            else:
                per_query.setdefault(i, []).append(r[key])
    medians = [statistics.median(v) for v in per_query.values()]
    tail_value, tail_pct = tail(medians)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(
            sum(r[key] for r in p["results"]) for p in plain),
        "solve_p50_s": statistics.median(medians),
        "solve_tail_s": tail_value,
        "train_s": statistics.median(train) if train else None,
    }, per_query, tail_pct


def run_workload(args):
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    e2e_units, layer_units = declared_metrics()
    work = OUT / "work" / f"{args.workload}-{args.seed}"
    workload = workloads.build(args.workload, args.seed, ROOT, work,
                               OUT / "cache")
    setup = measure_setup(workload)

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    runner = Runner(workload, work, tracer)
    depths = {i: q.depth for i, q in enumerate(workload.queries)
              if q.depth is not None}

    # Passes alternate untraced/traced under --trace 1. A pass is started
    # only if, judged by the last pass of its kind, it ends within
    # --seconds; under --trace 1 one traced pass is always made.
    passes = []
    layer_runs = []
    first_snapshot = None
    took = {}
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(runner.run_pass(traced))
        if traced:
            snap = tracer.snapshot()
            layer_runs.append(layer_metrics(tracer, snap, depths,
                                            passes[-1]["factors"]))
            if first_snapshot is None:
                first_snapshot = snap
        took[traced] = time.perf_counter() - start
        upcoming = bool(args.trace) and len(passes) % 2 == 1
        if args.trace and not layer_runs:
            continue
        if (time.perf_counter() - begin + took.get(upcoming, took[traced])
                > args.seconds):
            break

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(r["status"] != "ok" for p in passes for r in p["results"])
    wrong = sum(r["status"] == "wrong" for p in passes for r in p["results"])
    repeatable = len({p["digest"] for p in passes}) == 1
    counts_repeat = all(
        {k: v for k, v in run.items() if isinstance(v, int)}
        == {k: v for k, v in layer_runs[0].items() if isinstance(v, int)}
        for run in layer_runs)
    correct = wrong == 0 and repeatable and counts_repeat

    e2e, per_query, tail_pct = timings(plain, [s for s, _ in setup],
                                       "seconds")
    e2e.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fail_rate": failed / attempted,
    })
    e2e_raw, _, _ = timings(plain, [raw for _, raw in setup], "raw_seconds")

    layers = {}
    if layer_runs:
        for key in layer_runs[0]:
            values = [run[key] for run in layer_runs]
            layers[key] = values[0] if isinstance(values[0], int) \
                else statistics.median(values)
        layers["trace.overhead_ratio"] = statistics.median(
            p["wall"] for p in passes if p["traced"]) / e2e["wall_s"]

    failures = sorted({(r["qid"], r["status"], r["reason"])
                       for p in passes for r in p["results"]
                       if r["status"] != "ok"})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "samples": {
            "passes": len(plain),
            "traced_passes": len(layer_runs),
            "queries": len(workload.queries),
            "solve_queries": len(per_query),
            "tail_percentile": tail_pct,
            "setup_probes": len(setup),
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "repeatable": repeatable,
        "layer_counts_repeat": counts_repeat,
        "digest": passes[0]["digest"],
        "engine_stats": passes[0]["stats"],
        "reference_s": REFERENCE_S,
        "end_to_end": e2e,
        "end_to_end_raw": e2e_raw,
        "setup_s_samples": setup,
        "pass_walls": [(p["traced"], p["wall"], p["raw_wall"])
                       for p in passes],
        "calibration_s": [p["calibration_s"] for p in passes],
        "per_layer": layers,
        "failures": [dict(zip(("qid", "status", "reason"), f))
                     for f in failures],
        "queries": [
            {"qid": q.qid, "argv": q.argv[:1] + q.argv[2:],
             "seconds": per_query.get(i),
             "raw_seconds": [p["results"][i]["raw_seconds"] for p in plain]}
            for i, q in enumerate(workload.queries)],
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if first_snapshot is not None:
        tracer.write_spans(first_snapshot, results_dir / f"{stem}.spans.tsv.gz")

    report(record, e2e_units, layer_units)
    if args.trace:
        shown, units = layers, layer_units
    else:
        shown, units = e2e, e2e_units
    missing = [name for name in units if shown.get(name) is None]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": shown[name], "unit": unit}
                        for name, unit in units.items()}}


def report(record, e2e_units, layer_units):
    s = record["samples"]
    print(f"{record['workload']} seed={record['seed']}"
          f" passes={s['passes']} traced_passes={s['traced_passes']}"
          f" queries={s['queries']} attempted={record['attempted']}"
          f" failed={record['failed']} wrong={record['wrong']}"
          f" repeatable={record['repeatable']} correct={record['correct']}")
    e2e, e2e_raw = record["end_to_end"], record["end_to_end_raw"]
    print(f"  times in reference seconds (calibration loop ="
          f" {record['reference_s']} s); raw wall seconds in brackets")
    notes = {
        "setup_s": f"median of {s['setup_probes']} fresh processes",
        "wall_s": f"median of {s['passes']} passes",
        "solve_p50_s": f"over {s['solve_queries']} per-query medians",
        "solve_tail_s": f"p{s['tail_percentile']:.1f} over"
                        f" {s['solve_queries']} per-query medians",
        "fail_rate": f"{record['failed']} of {record['attempted']}",
    }
    units = dict(e2e_units, fail_rate="ratio", train_s="s")
    for name in ("setup_s", "wall_s", "solve_p50_s", "solve_tail_s",
                 "peak_rss_mb", "fail_rate", "train_s"):
        value = e2e[name]
        if value is None:
            shown = "n/a (guided-csp only)"
        elif name in e2e_raw:
            shown = f"{value:.6g} {units[name]} [{e2e_raw[name]:.6g}]"
        else:
            shown = f"{value:.6g} {units[name]}"
        print(f"  {name:<14} {shown:<30} {notes.get(name, '')}")
    for f in record["failures"]:
        print(f"  failed {f['qid']}: {f['status']}: {f['reason']}")
    for name, value in record["per_layer"].items():
        print(f"  {name:<36} {value:.6g} {layer_units.get(name, '')}")


def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: {name} exited {proc.returncode}")
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a full checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # single-threaded: numpy's BLAS would otherwise start a worker per core
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
