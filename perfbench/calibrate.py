"""A fixed reference loop that reads the machine's speed at the moment it runs.

On a shared host the CPU time of the same code swings by up to a factor of
two within seconds, as other tenants load the core it shares.  The benchmark
runs this loop before and after every timed piece of work and scales the
work's CPU time by ``REFERENCE_S`` over the loop's mean time, so its times
read as at one fixed speed: the speed at which the loop takes
``REFERENCE_S``.  The loop uses only the standard library, so no change to
the program can change it.  Imported by the set-up probe before ``rcpi``,
so it must not import numpy.
"""

from __future__ import annotations

import math
import time

ITERATIONS = 25_000
# The loop's CPU time on an Intel Xeon vCPU with an idle core sibling.
REFERENCE_S = 0.0025


def loop() -> float:
    """CPU seconds of one pass of the reference loop."""
    t = time.process_time()
    s = 0.0
    for i in range(ITERATIONS):
        s += math.sin(i * 1e-3)
    return time.process_time() - t


def scale(before: float, after: float) -> float:
    """Factor from CPU seconds measured between two loops to seconds at reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
