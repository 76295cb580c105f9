"""Timing calibrated against the machine's current speed.

On a shared host the CPU speed drifts by 15-30% over minutes, so raw
times of the same work differ that much between runs.  A fixed kernel
of pure-Python and small-numpy work, which shares no code with the
package, runs between operations.  Each operation's time is scaled by
NOMINAL_S over the mean kernel time just before and just after it:

    calibrated = raw * NOMINAL_S / kernel

which reads as seconds on a machine that runs the kernel in NOMINAL_S.
A change to the package moves `raw` but not `kernel`.  Interleaving the
kernel cut the spread of run medians from 0.20-0.31 to about 0.05 (2-CPU
Xeon VM, ten 8-second runs each of a sweep-like and a settle-like op).
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.02  # kernel time on that VM in a quiet period
INTERVAL_S = 0.25  # least time between kernel runs

_ARRAY = np.arange(20_000, dtype=float)


def kernel() -> float:
    """Seconds taken by the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(200_000):
        acc += (k * 1.0001) ** 0.5
    for _ in range(80):
        acc += float((_ARRAY * 1.0001).sum())
    return time.perf_counter() - t0


def quiet_kernel(n: int = 3) -> float:
    """Least of n kernel runs: a run the scheduler interrupted reads slow,
    while a change of CPU speed moves all n alike."""
    return min(kernel() for _ in range(n))


class Clock:
    """Kernel samples taken between operations; segment j lies between
    samples j and j + 1."""

    def __init__(self):
        self.samples = [kernel()]
        self.last = time.perf_counter()

    @property
    def segment(self) -> int:
        return len(self.samples) - 1

    def tick(self):
        """Take a sample if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.close()

    def close(self):
        self.samples.append(kernel())
        self.last = time.perf_counter()

    def factor(self, segment: int) -> float:
        """Scale for a time measured in `segment` (needs a later sample)."""
        return NOMINAL_S / (0.5 * (self.samples[segment] + self.samples[segment + 1]))
