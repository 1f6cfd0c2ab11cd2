"""Reference seconds: item times corrected for the machine's changing speed.

The benchmark runs on virtual machines whose CPUs are shared with other
tenants; there the speed of a fixed pure-Python loop drifts by up to 1.7x
from one minute to the next, in process CPU time as much as in wall time,
and raw timings of the same code spread by more than any useful bound.

While the timed items run, `SpeedProbe` times a fixed computation, the
probe, every PERIOD_S seconds of wall time, from a SIGALRM handler in the
benchmark's own thread.  The probe is exact rational arithmetic in the
standard library's `Fraction`, the kind of interpreter work g2trac does,
and nothing in g2trac can change its cost.  The reference seconds of an
interval are its wall time, less the probes that ran inside it, times
REFERENCE_PROBE_S times the mean of 1/duration over the probes that ran
within WINDOW_S of the interval: the time the interval's work would take
at the speed at which the probe takes REFERENCE_PROBE_S.  The mean of
1/duration weights each stretch of wall time by the speed it ran at, and a
probe interrupted by the scheduler counts for little instead of much.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
WINDOW_S = 0.25
# About the probe's median duration on the 2-CPU machine the first baseline
# was measured on, so that reference seconds there read close to seconds.
REFERENCE_PROBE_S = 3.0e-4


def probe() -> Fraction:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(i % 5 + 1, 3)
    return s


class SpeedProbe:
    """Context manager: runs the probe every PERIOD_S seconds while entered."""

    def __init__(self):
        self.starts = []        # probe start times, increasing
        self.durations = []
        self._old_handler = None

    def _tick(self, signum, frame):
        # No collection inside the probe: its cost would depend on the heap
        # the program has built, not on the machine.
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if was_enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per second of wall time between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no probe ran within {WINDOW_S} s of [{t0}, {t1}]")
        return REFERENCE_PROBE_S * sum(1.0 / d for d in self.durations[lo:hi]) / (hi - lo)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of this process's work between t0 and t1."""
        a = bisect.bisect_left(self.starts, t0)
        b = bisect.bisect_right(self.starts, t1)
        net = max(t1 - t0 - sum(self.durations[a:b]), 0.0)
        return net * self.scale(t0, t1)
