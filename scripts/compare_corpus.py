"""Compare `fifth solve` on the whole corpus between this checkout and another.

    python3 scripts/compare_corpus.py OTHER_CHECKOUT [--ignore stats.steps]

Every `corpus/**/*.5th` of this checkout is solved with and without `--gc`,
once with each checkout's `src/` on the path and its own copy of the
program. A run differs when its exit code or its stdout differs. With
`--ignore FIELD` (dotted, repeatable) that field is dropped from the JSON
report of both runs before they are compared. The script prints one line
per differing run and exits 1 if there is any, else 0. Standard library
only.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _run(checkout, program, gc):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "fifth.cli", "solve", program]
    if gc:
        cmd.append("--gc")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    return done.returncode, done.stdout


def _drop(stdout, fields):
    """stdout with the dotted `fields` removed, when it is a JSON object."""
    if not fields:
        return stdout
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    for field in fields:
        *path, last = field.split(".")
        node = report
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node.pop(last, None)
    return json.dumps(report, indent=2, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="FIELD",
                        help="dotted JSON field to drop before comparing")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    programs = sorted(p.relative_to(HERE).as_posix()
                      for p in HERE.glob("corpus/**/*.5th"))
    differ = 0
    for program in programs:
        for gc in (False, True):
            mine = _run(HERE, program, gc)
            theirs = _run(other, program, gc)
            same_exit = mine[0] == theirs[0]
            same_out = (_drop(mine[1], args.ignore)
                        == _drop(theirs[1], args.ignore))
            if not (same_exit and same_out):
                differ += 1
                what = [] if same_exit else [f"exit {theirs[0]} -> {mine[0]}"]
                what += [] if same_out else ["stdout"]
                print(f"{program}{' --gc' if gc else ''}: {', '.join(what)}")
    print(f"{differ} of {2 * len(programs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
