"""Reference kernels that measure how fast the machine runs at the moment.

On a shared host the same code runs up to 1.5x slower for seconds to
minutes at a time, as other tenants load the same cores. A child times
three fixed kernels, the kinds of work the program does: a pure-Python
loop, small numpy operations, and a random search that builds objects and
calls functions. The parent scales the job's time by them
(``checks.speed_scale``). No one kernel slows by the same factor as the
program; the three together followed it best of the mixes tried. Kernel
times are per *unit*: 5,000 loop iterations, 50 numpy steps, or 150
search steps.

``Sampler`` times one unit of each kernel every 20 ms while the job runs,
from a SIGALRM handler, so the reference sees the same moments as the job;
the handler's own time is taken out of the job's, and out of the
program's real clock (``hide_from``). ``blocks`` times them right after
the job, for jobs too short to sample and for traced jobs, whose spans
would count the handler.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PYTHON_UNIT = 5_000
NUMPY_UNIT = 50
SEARCH_UNIT = 150
BLOCK_UNITS = 10
KERNELS = ("python_s", "numpy_s", "search_s")
_A = np.random.default_rng(0).random((64, 40))
_RNG = np.random.default_rng(1)


class _Point:
    __slots__ = ("x", "f")

    def __init__(self, x, f) -> None:
        self.x = x
        self.f = f


def _sphere(x) -> float:
    return float(x @ x)


def kernels(units: int) -> tuple[float, float, float]:
    """Seconds per unit of each kernel, in the order of ``KERNELS``."""
    t0 = perf_counter()
    s = 0
    for i in range(PYTHON_UNIT * units):
        s += i * i
    t1 = perf_counter()
    for _ in range(NUMPY_UNIT * units):
        (_A * _A).sum(axis=1).argmin()
    t2 = perf_counter()
    best, recent = None, {}
    for i in range(SEARCH_UNIT * units):
        x = _RNG.random(5)
        point = _Point(x, _sphere(x))
        if best is None or point.f < best.f:
            best = point
        recent[i % 7] = point.f
    t3 = perf_counter()
    return (t1 - t0) / units, (t2 - t1) / units, (t3 - t2) / units


def blocks(n: int) -> dict[str, list[float]]:
    """``n`` blocks of ``BLOCK_UNITS`` units each, back to back."""
    times = [kernels(BLOCK_UNITS) for _ in range(n)]
    return {name: [t[k] for t in times] for k, name in enumerate(KERNELS)}


class Sampler:
    """One unit of each kernel every ``interval`` seconds of wall time
    between ``start`` and ``stop``."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernels(1))
        self.handler_s += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference(self) -> dict[str, list[float]]:
        return {name: [t[k] for t in self.samples] for k, name in enumerate(KERNELS)}

    def hide_from(self, clock_class) -> None:
        """Make ``clock_class.now`` (a ``perf_counter`` clock) leave out the
        handler's time, so that a real-clock run is not charged for it. A
        tick between the two reads could step the clock back by one
        handler's time; the clock holds its last value instead."""
        last = float("-inf")

        def now(clock) -> float:
            nonlocal last
            last = max(last, perf_counter() - self.handler_s)
            return last

        clock_class.now = now
