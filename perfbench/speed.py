"""Host-speed probe: rescales measured seconds to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
±25% over seconds to minutes as neighbours load it; the slowdown shows in
CPU time as much as in wall time, so no clock of this process can hide it.
The probe measures it instead: a SIGALRM handler times a fixed slice of
interpreter work (`kernel`, integer and big-integer arithmetic, tuple
hashing, dict lookups and Fractions, the mix the analyses use) every
`PERIOD` seconds while the workload runs. A query that took `dt` seconds
while the kernel took `k` seconds on median counts as

    (dt - time spent in the handler) * NOMINAL_S / k

seconds: its time on a host where the kernel takes `NOMINAL_S`. The kernel
does not touch the package under test, so a change to the package moves the
rescaled time as much as the raw time; only the host's drift cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# Median kernel time on the reference host (2-vCPU Xeon VM, Python 3.11.7).
# It sets only the scale of the rescaled seconds.
NOMINAL_S = 0.00087
# samples this close to a query also describe its host speed, so a query
# shorter than PERIOD still has some
WINDOW_S = 0.25

_TABLE = {(i, i * 7 % 13): i for i in range(256)}
_BIG = 3 ** 1500


def kernel():
    """A fixed slice of interpreter work, about 1 ms on the reference host."""
    acc = 0
    for i in range(1200):
        acc += _TABLE[(i & 255, (i & 255) * 7 % 13)] * i % 97
    x = Fraction(1, 3)
    for i in range(1, 70):
        x = x * Fraction(i, i + 1) + Fraction(1, i + 2)
    big = _BIG
    for _ in range(20):
        big = big * _BIG % (_BIG - 2)
    return acc + x.denominator % 7 + big % 11


def time_kernel():
    """Seconds of one kernel run, with the cyclic collector held off so that a
    collection owed by the workload is not charged to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate(runs=60):
    """Median kernel seconds over `runs` back-to-back runs."""
    return statistics.median(time_kernel() for _ in range(runs))


class Probe:
    """Samples the kernel on entry and then every PERIOD seconds from a
    SIGALRM handler.

    `samples` holds (end time, kernel seconds); `spent` is every second spent
    in the handler, so a caller can take it out of what it timed.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = self.clock()
        k = time_kernel()
        t1 = self.clock()
        self.samples.append((t1, k))
        self.spent += t1 - t0

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def kernel_s(self, t0, t1):
        """Median kernel seconds of the samples from WINDOW_S before t0 to
        WINDOW_S after t1, or the nearest sample when none is that close (a
        long C call holds the handler off)."""
        near = [k for t, k in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if near:
            return statistics.median(near)
        return min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]


def rescale(seconds, kernel_s):
    """`seconds` measured while the kernel took `kernel_s`, at NOMINAL_S."""
    return seconds * NOMINAL_S / kernel_s
