"""Time a search below a deep, finished recursion, with and without `--gc`.

    python3 scripts/deep_search.py [--repeat N]

The program calls a `count` chain d frames deep, which the root node runs
to its end, then chooses a, b and c from 0..4, all different, so every
other search node sits below the finished chain (under gc, below its
folded frames). Every run has 60 answers and takes 86 nodes. For d = 10
and d = 2,000, with and without gc, the script prints one line of
answers, nodes and the best of N in-process `solve` times in seconds
(N = 5 by default). It exits 1 if the four runs differ in answers or
nodes, else 0. Standard library and `fifth` only.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fifth import parse, solve  # noqa: E402

PROGRAM = """\
(def (count n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call count nm1 rest)
     (sum rest one r))
    ((const r 0))))
(def (main n r a b c)
  (call count n r)
  (choose a 0 1 2 3 4)
  (choose b 0 1 2 3 4)
  (choose c 0 1 2 3 4)
  (alldiff a b c))
(query (main (n {depth})) (show r a b c))
"""

DEPTHS = (10, 2000)


def run(depth, gc, repeat):
    """(answers, nodes, best seconds) of `repeat` solves."""
    program = parse(PROGRAM.format(depth=depth))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = solve(program, program.query, gc=gc)
        best = min(best, time.perf_counter() - start)
    return len(result.solutions), result.stats["nodes"], best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="solves per run; the best time is reported")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    counts = set()
    for depth in DEPTHS:
        for gc in (False, True):
            answers, nodes, best = run(depth, gc, args.repeat)
            counts.add((answers, nodes))
            print(f"d={depth:<5} gc={'on ' if gc else 'off'}"
                  f" answers={answers} nodes={nodes} best_s={best:.4f}")
    if len(counts) != 1:
        print("runs differ in answers or nodes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
