"""Timing sources: a real monotonic clock and a deterministic virtual clock.

The virtual clock only advances when computation costs are charged to it,
so identical operation sequences produce bit-identical timestamps. That is
what makes time-budgeted experiments replayable: a "50 s" virtual run costs
exactly the same 50.0 on every machine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping


class ClockUsageError(RuntimeError):
    """Raised when a virtual-only operation is applied to a real clock."""


@dataclass(frozen=True)
class ClockSpec:
    """Clock configuration for an experiment plan.

    In virtual mode every function evaluation charges `cost_per_eval`
    seconds and every iteration of algorithm `a` additionally charges
    `iteration_overhead[a]` seconds; wrappers may add explicit charges on
    top. Elapsed virtual time is exactly the sum of those charges.
    """

    mode: str = "real"
    cost_per_eval: float = 0.0
    iteration_overhead: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("real", "virtual"):
            raise ValueError(f"unknown clock mode {self.mode!r}")
        if not (math.isfinite(self.cost_per_eval) and self.cost_per_eval >= 0):
            raise ValueError("cost_per_eval must be finite and >= 0")
        if not all(math.isfinite(v) and v >= 0 for v in self.iteration_overhead.values()):
            raise ValueError("iteration overheads must be finite and >= 0")
        if self.mode == "real" and (self.cost_per_eval > 0 or self.iteration_overhead):
            raise ValueError("synthetic costs require clock mode 'virtual'")
        object.__setattr__(self, "iteration_overhead", dict(self.iteration_overhead))

    @property
    def is_virtual(self) -> bool:
        return self.mode == "virtual"


class RealClock:
    """Monotonic wall-clock source (perf_counter, never wall-calendar)."""

    is_virtual = False

    def now(self) -> float:
        return time.perf_counter()

    def charge(self, amount: float) -> None:
        raise ClockUsageError("cannot charge synthetic time to a real clock")


class VirtualClock:
    """Deterministic clock that advances only via explicit charges."""

    is_virtual = True

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def charge(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("cannot charge negative time")
        self._now += amount


def make_clock(spec: ClockSpec):
    return VirtualClock() if spec.is_virtual else RealClock()
