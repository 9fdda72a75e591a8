"""The machine's speed, sampled while a timed region runs.

A shared machine can change speed by up to 2x within seconds, and a figure
timed once moves with it.  `Speedometer`
times PROBE_LOOPS turns of a fixed pure-Python loop every PROBE_EVERY_S,
from a SIGALRM handler, so the samples cover the region evenly.  A region's
calibrated time is its wall time, less the time the probes took inside it,
times PROBE_REF_S / (median probe time): seconds at the speed at which one
probe takes PROBE_REF_S (about its median on the 2-core x86 VM the benchmark
was written on).  The probe needs no import beyond the standard library, so
it can run before anything else is loaded.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PROBE_LOOPS = 10_000
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.001


def probe() -> float:
    """Seconds for one fixed slice of interpreter work."""
    start = time.perf_counter()
    x = 0.3
    for _ in range(PROBE_LOOPS):
        x = math.sin(1.1 * x + 0.2)
    return time.perf_counter() - start


class Speedometer:
    """Probe samples taken on SIGALRM, plus one on each side of a region."""

    def __init__(self):
        self.at: list[float] = []     # start of each sample
        self.took: list[float] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:   # a signal that arrives during a sample is dropped
            return
        self._busy = True
        self.at.append(time.perf_counter())
        self.took.append(probe())
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrated(self, t0: float, t1: float) -> tuple[float, float]:
        """(net seconds, speed scale) of the region [t0, t1]: its length less
        the samples started inside it, and PROBE_REF_S over the median of those
        samples and the last one before and first one after the region (take
        those with `sample()` right before t0 and right after t1)."""
        inside = [i for i, at in enumerate(self.at) if t0 <= at < t1]
        edges = [i for i in (self._last_before(t0), self._first_after(t1)) if i is not None]
        used = [self.took[i] for i in inside + edges]
        net = t1 - t0 - sum(self.took[i] for i in inside)
        return net, PROBE_REF_S / statistics.median(used)

    def _last_before(self, t: float):
        before = [i for i, at in enumerate(self.at) if at < t]
        return before[-1] if before else None

    def _first_after(self, t: float):
        return next((i for i, at in enumerate(self.at) if at >= t), None)
