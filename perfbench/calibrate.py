"""Machine-speed calibration: times in reference seconds.

Shared 2-core hosts change speed by up to 3x within minutes, for reasons
outside the process (a fixed CPU-bound loop sampled every 0.1 s for
150 s took between 0.024 and 0.076 s). Such swings drown any change to the
engine. So next to the work the benchmark times a fixed pure-Python loop
that never touches the engine, and reports a time t measured while the loop
takes c seconds as t * REFERENCE_S / c: the time the work would take on a
machine where the loop takes REFERENCE_S. Raw wall times are recorded
beside every scaled one.
"""

import statistics
import time

REFERENCE_S = 0.008


def calibrate():
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    table = {}
    seen = set()
    total = 0
    for i in range(20000):
        item = (i, (i, i + 1))
        table[i % 997] = item
        seen.add(i % 1013)
        total += len(item[1]) + (i in seen)
    return time.perf_counter() - start


def speed_factors(samples):
    """Scale factor per query from calibration samples taken before each
    query and once after the last: REFERENCE_S over the median of the
    samples just before and after the query and two more on either side."""
    return [REFERENCE_S / statistics.median(samples[max(0, i - 2):i + 4])
            for i in range(len(samples) - 1)]
