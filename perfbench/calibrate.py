"""Machine-speed calibration: a fixed reference kernel timed between ops.

The 2-core shared hosts this benchmark runs on change speed by 20-60 % for
seconds to minutes at a time: a process's CPU time rises with its wall
time, and no steal time is reported.  Measured raw, the median ``verify``
latency of a 25 s run spread by 0.27 of its median over ten seeds, although
the program did the same work each time.

So the benchmark times a fixed kernel, half interpreted Python and half
numpy, between ops, and scales every timed interval by
``REFERENCE_S / kernel time`` around it: a time then reads what it would on
the host at its quiet speed.  The kernel does not touch transpin, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  Interleaving the kernel with ``verify`` for five minutes, the raw
median of 25 s windows spread by 0.14 and the scaled one by 0.03.

The kernel runs unpinned on the thread that runs the ops.  Pinned to each
CPU in turn, it read up to twice as slow while a high-order report, whose
process keeps more than one thread busy, read barely slower, and the
scaled high-order figures rose by half.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# kernel time at the quiet speed of a 2-core Intel Xeon host (Python 3.11.7,
# numpy 2.4.6); a scaled time reads in seconds of that host
REFERENCE_S = 0.0048
# at most this much wall time passes between kernel samples during a loop
PERIOD_S = 0.25

_GRID = np.linspace(0.0, 1.0, 20_000)


def kernel() -> float:
    """Fixed work: a Python loop over floats and a dict, then numpy ufuncs."""
    total, table = 0.0, {}
    for i in range(20_000):
        total += math.sin(i * 1e-3)
        table[i & 255] = total
    for _ in range(4):
        field = np.exp(3j * _GRID) * np.cos(_GRID)
        total += float(np.abs(field).sum())
    return total


class SpeedClock:
    """Kernel samples taken between timed intervals, and the scale of each."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.ends: list[float] = []   # perf_counter() at the end of each sample
        self.costs: list[float] = []  # its kernel time

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def tick(self) -> None:
        """Sample unless one ended less than ``period`` ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= self.period:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean kernel time of the samples on either
        side of ``[start, end]``: the last that ended by ``start`` and the
        first that ended after ``end``."""
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.ends, end)
        if before < 0 or after == len(self.ends):
            raise ValueError("no kernel sample on one side of the interval")
        return REFERENCE_S / ((self.costs[before] + self.costs[after]) / 2)

    def median_cost(self) -> float:
        return statistics.median(self.costs)
