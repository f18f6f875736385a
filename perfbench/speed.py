"""Scaling timings to a reference speed of the host.

On a shared host the speed of one core drifts by up to half over tens
of seconds, as other tenants load it; the same call can take 0.10 s in
one minute and 0.18 s in the next. A sampler therefore times a tiny
fixed pure-Python loop every 10 ms from a SIGALRM handler,
also while a library call runs. Each call's seconds are then scaled by
REFERENCE_LOOP_S over the loop's mean duration during the call. The
host flips between a fast and a slow mode many times a second, so the
mean, not the median, follows the share of time spent slow. The
figures then read as seconds at the reference speed, and runs made in
a slow spell stay comparable. The handler's own time is taken out of
every call, and records keep the raw seconds too.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.01
# Samples this far outside a call also count for it, so a short call
# is scaled by a steady mean.
WINDOW_S = 0.25
# About what one loop takes in a quiet spell on the host the baseline
# was taken on (2 vCPUs of a 2.0 GHz x86-64 machine, CPython 3.11). It
# only sets the scale of the reported seconds.
REFERENCE_LOOP_S = 0.00022


def _reference_loop() -> None:
    seen: set[tuple[int, int]] = set()
    masks: dict[int, int] = {}
    for i in range(500):
        key = (i & 255, i & 7)
        if key not in seen:
            seen.add(key)
        masks[i & 127] = masks.get(i & 127, 0) | (1 << (i & 31))


class SpeedSampler:
    """Context manager that samples the host's speed while it is open."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self.stolen = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # A collection started by the loop's allocations would time the
        # interrupted code's garbage, not the host.
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _reference_loop()
        self.samples.append((t, time.perf_counter() - t))
        if collecting:
            gc.enable()
        self.stolen += time.perf_counter() - t

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """The time and the handler's seconds so far, to difference later."""
        return time.perf_counter(), self.stolen

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds per raw second between start and end."""
        lo = bisect.bisect_left(self.samples, start - WINDOW_S, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end + WINDOW_S, key=lambda s: s[0])
        near = [d for _, d in self.samples[lo:hi]]
        if not near:
            raise RuntimeError("no speed sample near the timed interval")
        return REFERENCE_LOOP_S / statistics.fmean(near)
