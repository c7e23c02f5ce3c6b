"""Host-speed sampling, so that timings of runs made minutes apart compare.

On a shared host the speed a process gets drifts by 20% and more over
seconds to minutes, for its wall time and its CPU time alike; two runs of
the same code then differ by more than any useful regression bound.
``HostSpeed`` measures that drift while the workload runs: a SIGALRM timer
interrupts the process every ``INTERVAL_S`` seconds and times ``_loop``, a
fixed piece of pure-Python integer and container work that calls no
extraspecial code.  Its samples fall evenly in time, also inside a
23-second oracle verify, so their mean is the run's average slowness.

``factor()`` is that mean over ``REF_S``, the loop's mean time at the
reference speed (a 2.1 GHz Xeon vCPU, Python 3.11).  Dividing a wall time
by the factor gives seconds at the reference speed.  ``factor(start, end)``
covers only the samples taken from ``MARGIN_S`` before ``start`` to
``MARGIN_S`` after ``end``.  The host switches between a fast and a slow
state every second or so, so that the times of one operation repeated are
bimodal; scaled by the run's mean their median still jumps between the two
modes, scaled by the speed each ran at it does not.  The time spent in the
sampler is kept in ``spent`` so that callers can take it out of what they
time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.025
REF_S = 0.0003
MARGIN_S = 0.1


def _loop() -> None:
    a = range(1, 41)
    out = [0] * 82
    for i in a:
        for j in a:
            out[i + j] = (out[i + j] + i * j) % 7
    d: dict[int, int] = {}
    for k in range(600):
        d[k % 37] = d.get(k % 37, 0) + k


class HostSpeed:
    """Context manager that samples host speed while it is open."""

    def __init__(self) -> None:
        self.times: list[float] = []      # when each sample started
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # a collection of the workload's garbage must not land in the sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            _loop()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float | None = None, end: float | None = None) -> float | None:
        """Mean loop time over the reference one, above 1 when the host ran
        slow: of all samples, or of those from ``MARGIN_S`` before ``start``
        to ``MARGIN_S`` after ``end``; None if there are none."""
        window = self.samples
        if start is not None:
            window = window[bisect_left(self.times, start - MARGIN_S):
                            bisect_right(self.times, end + MARGIN_S)]
        return statistics.fmean(window) / REF_S if window else None
