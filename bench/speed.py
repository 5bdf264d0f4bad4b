"""Speed reference: report times at a fixed machine speed.

The shared machines this benchmark runs on change speed for interpreter work
by 10-100% within a second (measured: the kernel below took 2.9 ms and 5.9 ms
a few seconds apart, and one catalog scene took 0.51 s to 0.83 s on
identical input).  So every timed region is run under a ``SpeedProbe``: the
reference kernel, a fixed sparse product of two rational polynomials written
here, is timed ``BATCH`` times just before the region and again on a
``PERIOD_S`` timer while it runs.  The kernel's own time is taken out of the
region's time, and the rest is reported as

    net time * REFERENCE_S / mean(kernel times)

that is, seconds at the speed at which the kernel takes ``REFERENCE_S``.  The
program under test never runs this code, and the kernel runs with the cyclic
garbage collector off, so the size of the program's heap does not enter the
reference.  The program can still reach it through state the two share, such
as the CPU caches the kernel finds warm or cold after a verdict.  Sampling
during the region, not only next to it, is what makes long verdicts steady:
with samples only before and after, a 0.2 s verdict's scaled time still
varied by 14% (coefficient of variation); with samples during it, by 5%.  The
mean, not the median, of the samples is used because the region's time sums
over the machine's fast and slow moments, and so does the mean: on the 0.5 s
``mm1-random`` scene the scaled time varied by 11% with the median and by
4.6% with the mean.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction
from typing import Any, Callable

REFERENCE_S = 0.0004
PERIOD_S = 0.01
BATCH = 8


def _reference_poly(seed: int, terms: int) -> dict:
    rng = random.Random(seed)
    return {(rng.randrange(5), rng.randrange(5), rng.randrange(5)):
            Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6)))
            for _ in range(terms)}


_A, _B = _reference_poly(1, 16), _reference_poly(2, 8)


def kernel_s() -> float:
    """Time one run of the reference kernel.

    The cyclic garbage collector is off while it runs: the kernel allocates
    about a hundred tracked objects, and a collection it set off would scan
    the program's heap and charge that to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for (a0, a1, a2), c1 in _A.items():
            for (b0, b1, b2), c2 in _B.items():
                e = (a0 + b0, a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + c1 * c2
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times a region together with the reference kernel around and in it.

    ``on_sample`` is called with the seconds each in-region sample took, so a
    tracer can keep that time out of the span it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.on_sample: Callable[[float], None] | None = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_s())
        spent = time.perf_counter() - start
        self.spent += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def run(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``fn``; return its result, its net seconds, and the scale that
        converts them to seconds at reference speed."""
        self.samples = [kernel_s() for _ in range(BATCH)]
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, elapsed - self.spent, REFERENCE_S / statistics.fmean(self.samples)
