"""Timing sources: a real monotonic clock and a deterministic virtual clock.

Virtual elapsed time is a closed-form function of a run's counts,
``evals * cost_per_eval + iterations * step_overhead``, so identical
counts produce bit-identical timestamps. That is what makes time-budgeted
experiments replayable: a "50 s" virtual run costs exactly the same 50.0
on every machine. The runner's "does the next iteration fit in T" check
and the evaluator's timestamps evaluate the same `VirtualClock.at`, so the
projection of an iteration equals the time stamped after it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

# Recorded in the manifest, so that a replay knows how virtual time was derived.
CLOCK_SCHEME_ID = "evals*cost_per_eval+iterations*step_overhead/v1"


@dataclass(frozen=True)
class ClockSpec:
    """Clock configuration for an experiment plan.

    In virtual mode every function evaluation costs `cost_per_eval`
    seconds; an algorithm's per-iteration cost is its
    ``synthetic_overhead`` wrapper, which the plan checks and charges.
    """

    mode: str = "real"
    cost_per_eval: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("real", "virtual"):
            raise ValueError(f"unknown clock mode {self.mode!r}")
        if not (math.isfinite(self.cost_per_eval) and self.cost_per_eval >= 0):
            raise ValueError("cost_per_eval must be finite and >= 0")
        if self.mode == "real" and self.cost_per_eval > 0:
            raise ValueError("synthetic costs require clock mode 'virtual'")

    @property
    def is_virtual(self) -> bool:
        return self.mode == "virtual"


class RealClock:
    """Monotonic wall-clock time (perf_counter, never wall-calendar) since
    the clock was made; one clock per run."""

    def __init__(self) -> None:
        self.origin = self.now()

    def now(self) -> float:
        return time.perf_counter()

    def at(self, evals: int, iterations: int) -> float:
        """Seconds since the run started; measured, so the counts play no part."""
        return self.now() - self.origin


@dataclass(frozen=True)
class VirtualClock:
    """Elapsed time of a run derived from its counts: each evaluation costs
    `cost_per_eval`, each iteration `step_overhead`, charged as it starts."""

    cost_per_eval: float
    step_overhead: float

    def at(self, evals: int, iterations: int) -> float:
        return evals * self.cost_per_eval + iterations * self.step_overhead
