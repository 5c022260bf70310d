"""Host-speed correction for wall-clock segments.

On a shared host, the same single-threaded Python work can take 1.5x longer
for minutes at a time, and CPU time slows with it (nothing is stolen from
the process; it runs slower).  Medians over one run cannot absorb a
slowdown that lasts the whole run, so every timed segment is rescaled by
the host speed measured around it:

  * ``calibrate`` times a fixed pure-Python reference loop that touches no
    part of netmat; its time divided by ``REFERENCE_S`` is the slowdown
    factor at that moment;
  * ``segment`` times one call, calibrating first whenever ``EVERY_S``
    seconds have passed since the last sample;
  * ``corrected`` divides each segment's duration by the median factor of
    the samples within ``WINDOW_S`` seconds of it.

A corrected time reads as wall seconds at the reference host speed; it
rises and falls with the program's own cost, not the host's.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Reference-loop time at the host speed that corrected times are quoted at:
# about its fastest time on a 2-core x86-64 host under Python 3.11.
REFERENCE_S = 0.008
# Longest gap between samples, and how far around a segment samples count.
EVERY_S = 0.3
WINDOW_S = 1.0


def _reference_loop(iterations: int = 100_000) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


class HostSpeed:
    def __init__(self):
        self._at: list[float] = []
        self._factor: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self._at.append(end)
        self._factor.append((end - start) / REFERENCE_S)

    def segment(self, fn, spans: list[tuple[float, float]]):
        """Call fn, append its (start, end) to spans and return its result."""
        if time.perf_counter() - self._at[-1] >= EVERY_S:
            self.calibrate()
        start = time.perf_counter()
        result = fn()
        spans.append((start, time.perf_counter()))
        return result

    def factor(self, start: float, end: float) -> float:
        """Median slowdown of the samples within WINDOW_S of [start, end],
        or of the nearest sample on each side when none is that close."""
        lo = bisect.bisect_left(self._at, start - WINDOW_S)
        hi = bisect.bisect_right(self._at, end + WINDOW_S)
        near = self._factor[lo:hi]
        if not near:
            i = bisect.bisect_left(self._at, start)
            near = self._factor[max(i - 1, 0): i + 1]
        return statistics.median(near)

    def corrected(self, spans: list[tuple[float, float]]) -> float:
        """Sum of the segments' durations at the reference host speed."""
        return sum((end - start) / self.factor(start, end) for start, end in spans)

    def mean_factor(self) -> float:
        return statistics.fmean(self._factor)
