"""A machine-speed reference, sampled all through the timed operations.

The benchmark shares its machine: other processes slow every CPU-bound
step by up to about 1.7x, in phases from seconds to minutes long. A fixed
piece of pure-Python work, independent of the program under test, slows
down by the same factor. While a `Sampler` is active, a SIGALRM handler
times that work every `INTERVAL_S` seconds; a timed interval is then
converted to seconds at nominal speed. On a 2-vCPU shared VM, scaling by
samples taken around each 2,000-tick simulation cut the spread of its
median speed between 10-run windows from 37% to 4%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.1
# Seconds of one `reference_work()` on an idle core of the 2-vCPU x86 VM
# the bounds were set on. Only ratios between runs matter.
NOMINAL_S = 0.002


def reference_work() -> Fraction:
    """Exact rational arithmetic and dict updates, as in the compiler's
    inner loops."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 460):
        total += Fraction(i % 19 + 1, 20) * Fraction(7, 20)
        seen[i] = total
    return total


class Sampler:
    """Reference samples as (start, seconds), taken in the main thread
    between the program's bytecodes."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:  # SIGALRM handler
        # A collection here would sweep the program's heap on our clock.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if collecting:
                gc.enable()

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at nominal speed. The samples
        taken inside it are left out; every other stretch is divided by
        the slowdown of the sample before it (median with its neighbours,
        so one odd sample does not rescale a stretch). Unchanged when no
        sample was taken within one interval of it."""
        near = [(t, d) for t, d in self.samples
                if start - INTERVAL_S <= t < end + INTERVAL_S]
        if not near:
            return end - start
        slow = [d / NOMINAL_S for _, d in near]
        smooth = [statistics.median(slow[max(0, i - 1):i + 2])
                  for i in range(len(slow))]
        total, cursor, current = 0.0, start, smooth[0]
        for (t, d), s in zip(near, smooth):
            if t >= end:
                break
            if t > cursor:
                total += (t - cursor) / current
            cursor = max(cursor, t + d)
            current = s
        if end > cursor:
            total += (end - cursor) / current
        return total

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the program over [start, end]."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        nominal = self.nominal(start, end)
        return (end - start - inside) / nominal if nominal > 0 else 1.0
