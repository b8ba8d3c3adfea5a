"""Compare `fifth solve` on the whole corpus between this checkout and another.

    python3 scripts/compare_corpus.py OTHER_CHECKOUT [--ignore stats.steps]
    python3 scripts/compare_corpus.py OTHER_CHECKOUT --guided

Every `corpus/**/*.5th` of this checkout is solved once with each
checkout's `src/` on the path and its own copy of the program. A run differs when its exit code or its stdout differs. With
`--ignore FIELD` (dotted, repeatable) that field is dropped from the JSON
report of both runs before they are compared.

With `--guided`, each checkout instead runs `fifth train --seed 0` on
`corpus/csp/train` and on `corpus/fact`; every file of the two bundles
must be byte-equal to the other checkout's, and a train differs when its
exit code does. Then each `corpus/csp/eval` program is solved with
`--oracle learned`, each checkout reading its own `corpus/csp/train`
bundle, and compared as above.

The script prints one line per differing file or run and exits 1 if there
is any, else 0. Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
GUIDED_TRAIN = ("corpus/csp/train", "corpus/fact")


def _fifth(checkout, *args):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "fifth.cli", *args],
                          cwd=checkout, env=env, capture_output=True,
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


def _differ(label, mine, theirs, ignore):
    """Print and count a run whose exit code or stdout differs."""
    same_exit = mine[0] == theirs[0]
    same_out = _drop(mine[1], ignore) == _drop(theirs[1], ignore)
    if same_exit and same_out:
        return 0
    what = [] if same_exit else [f"exit {theirs[0]} -> {mine[0]}"]
    what += [] if same_out else ["stdout"]
    print(f"{label}: {', '.join(what)}")
    return 1


def _plain(other, ignore):
    """(differing, compared) solve runs over the whole corpus."""
    programs = sorted(p.relative_to(HERE).as_posix()
                      for p in HERE.glob("corpus/**/*.5th"))
    differ = sum(_differ(program, _fifth(HERE, "solve", program),
                         _fifth(other, "solve", program), ignore)
                 for program in programs)
    return differ, len(programs)


def _guided(other, ignore, scratch):
    """(differing, compared) bundle files, trains and learned solves."""
    differ = compared = 0
    for corpus in GUIDED_TRAIN:
        models, trains = {}, {}
        for side, checkout in (("mine", HERE), ("theirs", other)):
            models[side] = scratch / side / Path(corpus).name
            code, _ = _fifth(checkout, "train", corpus, "--model",
                             str(models[side]), "--seed", "0")
            trains[side] = code, ""  # its stdout names the model directory
        compared += 1
        differ += _differ(f"train {corpus}", trains["mine"],
                          trains["theirs"], ignore)
        names = sorted({p.relative_to(m).as_posix()
                        for m in models.values() if m.is_dir()
                        for p in m.rglob("*") if p.is_file()})
        for name in names:
            compared += 1
            files = [models[side] / name for side in ("mine", "theirs")]
            if not all(f.is_file() for f in files) \
                    or files[0].read_bytes() != files[1].read_bytes():
                differ += 1
                print(f"{corpus} bundle {name}: bytes")
    for program in sorted(p.relative_to(HERE).as_posix()
                          for p in HERE.glob("corpus/csp/eval/*.5th")):
        compared += 1
        runs = [_fifth(checkout, "solve", program, "--oracle", "learned",
                       "--model", str(scratch / side / "train"))
                for side, checkout in (("mine", HERE), ("theirs", other))]
        differ += _differ(f"{program} --oracle learned", *runs, ignore)
    return differ, compared


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="FIELD",
                        help="dotted JSON field to drop before comparing")
    parser.add_argument("--guided", action="store_true",
                        help="compare trained bundles and learned solves")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if args.guided:
        with tempfile.TemporaryDirectory() as scratch:
            differ, compared = _guided(other, args.ignore, Path(scratch))
        print(f"{differ} of {compared} files and runs differ")
    else:
        differ, compared = _plain(other, args.ignore)
        print(f"{differ} of {compared} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
