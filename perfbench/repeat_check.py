#!/usr/bin/env python3
"""Check that two runs with the same seed agree exactly.

Runs one workload twice, each in a fresh process, one after the other, and
compares the answer digest, the engine counters and (with --trace 1) the
exact per-layer counts. Times are not compared. Exits 0 when they match.

    python3 perfbench/repeat_check.py --workload search-mix --seed 1
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def exact_part(record):
    counts = {k: v for k, v in record["per_layer"].items()
              if isinstance(v, int)}
    return {"digest": record["digest"],
            "engine_stats": record["engine_stats"],
            "layer_counts": counts}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)
    result = (HERE / "out" / "results" /
              f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    seen = []
    for _ in range(2):
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "1",
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.DEVNULL, timeout=900)
        seen.append(exact_part(json.loads(result.read_text())))
    same = seen[0] == seen[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "identical": same, "first": seen[0]}, sort_keys=True))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
