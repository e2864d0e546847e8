"""A fixed loop whose time tracks how fast the machine runs right now.

On a shared machine the same work can run 20-40% slower from one minute to
the next, because other tenants load the cores and caches.  The benchmark
times this loop before every query (``worker.py``) and reports each query
time scaled to what it would have been with the loop at ``REFERENCE_S``:
``time * REFERENCE_S / loop time``.  The loop does what the program does
most: small-int arithmetic in the interpreter, dict updates and a few
big-int products.  It never touches ribbonmod, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

# About the loop's typical time on the 2-core x86-64 machine the benchmark
# was built on (it ranged from 6 to 15 ms there).  Only ratios between runs
# on one machine matter, so the value just sets the scale.
REFERENCE_S = 0.010
# Each scale factor uses the median loop time of this many neighbouring
# measurements, which follows the machine's drift over seconds but not the
# noise of a single 10 ms measurement.
WINDOW = 9


def calibrate() -> float:
    """Seconds the fixed loop takes now (about 10 ms on the build machine)."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(30000):
        acc += i * i % 7
        table[i & 511] = table.get(i & 511, 0) + acc
    x = 3 ** 5000
    for _ in range(30):
        x = (x * x) >> x.bit_length()
    return time.perf_counter() - start


def scaled(times: list[float], loops: list[float]) -> list[float]:
    """``times[i]`` scaled by the median of the loop times around ``loops[i]``."""
    half = WINDOW // 2
    return [t * REFERENCE_S / statistics.median(loops[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]
