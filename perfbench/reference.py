"""Reference kernel: a fixed measure of the host's current speed.

The shared host flips between a fast and a slow mode (about 0.7 : 1) for
stretches of seconds to a minute, and every piece of Python code slows
down together, though not all by the same factor.  The kernel below does
the two kinds of work orbitcalc does -- a sparse polynomial product over
exact rationals, with exponent tuples as dict keys, and Gauss-Jordan
elimination of a rational matrix -- in code that belongs to the benchmark,
so no change to the program under test changes it.  Measured on a 2-vCPU
host, the kernel's slow-to-fast ratio lies between those of the cheapest
and the dearest ``presentation`` rung.

Modes can flip within a long task, so a :class:`Sampler` times the kernel
every ``PERIOD_S`` of wall time from a timer signal, in the middle of the
tasks too.  A task's time divided by the mean kernel reading around it, and
multiplied by ``NOMINAL_S``, is its time in reference seconds: the time the
task takes whenever the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# The kernel's nominal time; reference seconds are scaled to it.
NOMINAL_S = 0.010

# Wall time between two kernel readings of a sampler.
PERIOD_S = 0.25


def _poly(rng: random.Random, nvars: int, degree: int, terms: int) -> dict:
    poly = {}
    while len(poly) < terms:
        exps = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            exps[rng.randrange(nvars)] += 1
        poly[tuple(exps)] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
    return poly


_RNG = random.Random(12345)
_A = _poly(_RNG, 4, 5, 24)
_B = _poly(_RNG, 4, 5, 24)
_M = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(12)] for _ in range(12)]


def _product() -> dict:
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return out


def _eliminate() -> list:
    m = [row[:] for row in _M]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


def kernel_seconds() -> float:
    """Wall time of one kernel run, with the collector paused so that a
    collection of the caller's garbage does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _product()
        _eliminate()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Kernel readings every ``PERIOD_S`` of wall time, taken from a
    ``SIGALRM`` handler while the sampler is entered.

    The handler runs between two bytecodes of whatever is running, so a
    reading can land inside a task; :meth:`handler_seconds` tells how much
    of an interval the readings took, to be taken out of the task's time.
    """

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each reading
        self.kernel: list[float] = []  # the kernel's time of each reading
        self.spent: list[float] = [0.0]  # handler time of all readings so far
        self._old_handler = None

    def read(self, *_signal_args):
        start = time.perf_counter()
        kernel = kernel_seconds()
        self.starts.append(start)
        self.kernel.append(kernel)
        self.spent.append(self.spent[-1] + time.perf_counter() - start)

    def __enter__(self):
        for _ in range(3):  # warm-up
            kernel_seconds()
        self.read()
        self._old_handler = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.read()
        return False

    def handler_seconds(self, start: float, end: float) -> float:
        """Time of the readings that started within [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return self.spent[hi] - self.spent[lo]

    def kernel_around(self, start: float, end: float) -> float:
        """Mean kernel reading within a period of [start, end], or the
        nearest reading if none is that close."""
        lo = bisect.bisect_left(self.starts, start - PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + PERIOD_S)
        if hi > lo:
            return statistics.fmean(self.kernel[lo:hi])
        nearest = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
        return self.kernel[nearest]

    def reference_seconds(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent in [start, end], in reference seconds."""
        return seconds * NOMINAL_S / self.kernel_around(start, end)
