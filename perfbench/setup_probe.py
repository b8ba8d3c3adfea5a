"""Set-up cost of a fresh `fifth` process, as every `fifth solve` pays it.

Times importing `fifth.cli` and then parsing and instantiating each program
named on the command line once, and prints {"setup_s": seconds,
"calibration_s": seconds} as JSON, the second being the median of three
runs of the calibration loop (calibrate.py) made just before. run.py starts
this script in a new interpreter several times per run and reports the
median, in reference seconds.

    python3 perfbench/setup_probe.py PROGRAM.5th [PROGRAM.5th ...]
"""

import json
import statistics
import sys
import time
from pathlib import Path

from calibrate import calibrate

ROOT = Path(__file__).resolve().parent.parent


def main(paths):
    sys.path.insert(0, str(ROOT / "src"))
    calibration = statistics.median(calibrate() for _ in range(3))
    t0 = time.perf_counter()
    import fifth.cli  # noqa: F401  (the import is what is being timed)
    from fifth.language import instantiate, parse

    for path in paths:
        program = parse(Path(path).read_text())
        instantiate(program, program.query.entry, dict(program.query.bindings))
    return {"setup_s": time.perf_counter() - t0, "calibration_s": calibration}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
