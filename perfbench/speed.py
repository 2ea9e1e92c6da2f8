"""Machine-speed sampler for the timed runs.

On a shared host the speed of this process's CPU changes from one moment to
the next as neighbours load the physical core: a fixed pure-Python loop takes
up to about 1.7x its undisturbed time, in slow spells that last from
milliseconds to minutes. Wall time then varies from run to run with the share
of the run spent in slow spells, not with what tiplab does.

While the timed answers run, a timer signal interrupts them every ``PERIOD``
seconds and runs a fixed probe loop twice: once to bring it back into the
caches, then timed. The timed pass measures the CPU's speed at that moment.
``reference_seconds(t0, t1)`` rescales each slice of wall time between probes
by ``REF_PROBE_S`` over the probe time at the slice's end, and leaves the
probes' own time out. The result is the time the interval would have taken
on a CPU where the probe takes ``REF_PROBE_S``: the undisturbed speed of the
machine the benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11), so
the figures read as seconds there. The probe does not depend on tiplab, so a
change in tiplab's work moves the rescaled time as it moves the wall time.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD = 0.01                           # seconds between probes
LOOP = 100                              # probe iterations
REF_PROBE_S = 13.5e-6                   # one undisturbed, warm timed pass


def _probe_loop(n: int) -> float:
    """Scalar float arithmetic and a libm call per step, like tiplab's rhs."""
    x = 1.0
    for i in range(n):
        x += 0.01 * x * (1.0 - x / 40.0) + 0.001 * math.sin(0.25 * i)
    return x


class SpeedSampler:
    """Context manager: samples the CPU's speed while it is entered."""

    def __init__(self):
        self.starts: list[float] = []   # probe start, warm-up pass included
        self.ends: list[float] = []
        self._raw: list[float] = []     # duration of the timed pass
        self._dur: list[float] = []
        self._previous = None
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:                  # a signal that arrived during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        _probe_loop(LOOP)
        t1 = time.perf_counter()
        _probe_loop(LOOP)
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self._raw.append(t2 - t1)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        raw = self._raw
        # median of each probe and its neighbours, so that one probe the
        # scheduler interrupted does not rescale its slice to nothing
        self._dur = [statistics.median(raw[max(0, k - 1):k + 2]) for k in range(len(raw))]
        return False

    @property
    def probes(self) -> int:
        return len(self.starts)

    def slow_ratio(self) -> float:
        """Median probe time over the reference one: how loaded the run was."""
        return statistics.median(self._dur) / REF_PROBE_S if self._dur else math.nan

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the reference speed."""
        n = len(self.starts)
        if n == 0:
            return t1 - t0
        i = bisect.bisect_left(self.starts, t0)
        total, last = 0.0, t0
        while i < n and self.starts[i] < t1:
            total += (self.starts[i] - last) * REF_PROBE_S / self._dur[i]
            last = self.ends[i]
            i += 1
        # the tail ran at the speed the next probe measures
        total += (t1 - last) * REF_PROBE_S / self._dur[min(i, n - 1)]
        return total
