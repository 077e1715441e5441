"""Shared domain types for time-fair optimizer benchmarking.

Everything here is plain immutable data. Types that describe an experiment
plan (Budget, TargetSpec) validate themselves at construction; a type that
describes observed results (RunRecord) accepts whatever it is given.
:func:`validate` checks a run's invariants on its plain values, as the log
parser reads them, and reports violations as data instead of raising.

Minimization is the canonical direction throughout: maximization problems
are wrapped by negation at the problem layer, and a quality target q counts
as reached when best_f <= q (non-strict).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class Termination(Enum):
    """Why a single optimizer run stopped."""

    TARGET_REACHED = "TargetReached"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    INTERNAL_STOP = "InternalStop"


@dataclass(frozen=True)
class Budget:
    """Wall-clock limit per (algorithm, instance), plus an optional FE cap.

    Both limits are aggregate over all restarts, not per run.
    """

    wall_time_limit: float
    eval_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.wall_time_limit) and self.wall_time_limit > 0):
            raise ValueError("wall_time_limit must be finite and > 0")
        if self.eval_cap is not None and self.eval_cap < 1:
            raise ValueError("eval_cap must be >= 1 when set")


@dataclass(frozen=True)
class TargetSpec:
    """Ordered ladder of quality thresholds, easiest first.

    kind "absolute": values are objective thresholds, strictly decreasing.
    kind "relative": values are precisions df > 0 meaning f_opt + df for an
    instance with a known optimum, strictly decreasing.
    """

    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("absolute", "relative"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("target values must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("target values must be finite")
        if any(b >= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("target values must be strictly decreasing")
        if self.kind == "relative" and any(v <= 0 for v in self.values):
            raise ValueError("relative precisions must be > 0")

    def resolve(self, f_opt: Optional[float] = None) -> tuple[float, ...]:
        """Absolute thresholds for one instance, easiest first."""
        if self.kind == "absolute":
            return self.values
        if f_opt is None:
            raise ValueError("relative targets require an instance with a known optimum")
        return tuple(f_opt + v for v in self.values)


@dataclass(frozen=True)
class RunRecord:
    """One independent optimizer run.

    Its best-so-far improvements are three columns, named after the run
    log's improvement keys: each one's `elapsed`, `evals` and `best_f`, in
    order. The anytime curve is the step function carrying each best_f
    forward. `repetition` and `run_index` locate the run inside the restart
    loop of one plan repetition.
    """

    algorithm_id: str
    instance_id: str
    seed: int
    elapsed: tuple[float, ...]
    evals: tuple[int, ...]
    best_f: tuple[float, ...]
    time_used: float
    evals_used: int
    termination: Termination
    repetition: int = 0
    run_index: int = 0
    n_clamped: int = 0
    max_step_seconds: float = 0.0

    def __post_init__(self) -> None:
        for column in ("elapsed", "evals", "best_f"):
            object.__setattr__(self, column, tuple(getattr(self, column)))

    @property
    def final_best(self) -> float:
        """Best objective reached, +inf for a run with no evaluations."""
        return self.best_f[-1] if self.best_f else math.inf


def validate(elapsed: list[float], evals: list[int], best_f: list[float],
             time_used: float, evals_used: int, max_step_seconds: float) -> list[str]:
    """Check a run's invariants, returning every violation by name.

    The run is given as plain values, as ``report.parse_run_log`` checks
    each run it reads: its points' ``elapsed``, ``evals`` and ``best_f``
    lists and its ``time_used``, ``evals_used`` and ``max_step_seconds``.
    An empty list means the run is valid. Violations are data, not
    failures, so that corrupt logs can be diagnosed.
    """
    # a run that passes these chains of comparisons (which NaN fails) breaks
    # no invariant; any other run is diagnosed check by check below
    if (
        elapsed
        and all(map(operator.le, [0.0, *elapsed], [*elapsed, time_used]))
        and all(map(operator.lt, [0, *evals], evals))
        and evals[-1] <= evals_used
        and all(map(operator.gt, best_f, best_f[1:]))
        and math.isfinite(best_f[0])
        and math.isfinite(best_f[-1])
        and math.isfinite(time_used)
        and math.isfinite(max_step_seconds)
    ):
        return []
    violations = []
    if not elapsed and evals_used > 0:
        violations.append("empty trajectory with evals_used > 0")
    if elapsed:
        if evals[0] < 1:
            violations.append("first point evals < 1")
        if any(t < 0 for t in elapsed):  # not min(), which skips a negative after a NaN
            violations.append("elapsed negative")
        if any(map(operator.lt, elapsed[1:], elapsed)):
            violations.append("elapsed non-monotone")
        if any(map(operator.lt, evals[1:], evals)):
            violations.append("evals non-monotone")
        if any(map(operator.eq, evals[1:], evals)):
            violations.append("evals repeated")
        if any(map(operator.ge, best_f[1:], best_f)):
            violations.append("best_f not strictly decreasing")
        if time_used < elapsed[-1]:
            violations.append("time_used < last trajectory elapsed")
        if evals_used < evals[-1]:
            violations.append("evals_used < last trajectory evals")
        if not all(map(math.isfinite, elapsed)):
            violations.append("elapsed non-finite")
        if not all(map(math.isfinite, best_f)):
            violations.append("best_f non-finite")
    if not math.isfinite(time_used):
        violations.append("time_used non-finite")
    if not math.isfinite(max_step_seconds):
        violations.append("max_step_seconds non-finite")
    if time_used < 0:
        violations.append("time_used negative")
    if evals_used < 0:
        violations.append("evals_used negative")
    return violations


@dataclass(frozen=True)
class ErtResult:
    """Expected running time to one target over R runs with s successes."""

    target: Optional[float]
    ert: float
    successes: int
    runs: int
    success_rate: float

    def __post_init__(self) -> None:
        if (self.successes == 0) != math.isinf(self.ert):
            raise ValueError("ert must be +inf exactly when successes == 0")
        if not (0.0 <= self.success_rate <= 1.0):
            raise ValueError("success_rate must lie in [0, 1]")
        if self.successes > self.runs:
            raise ValueError("successes cannot exceed runs")


@dataclass(frozen=True)
class CostMatrix:
    """Per (instance, solver) cost table; +inf marks failure on an instance.

    Rows with no finite entry are flagged in `all_failed_instances`; the
    profile computation excludes them from the instance count.
    """

    solvers: tuple[str, ...]
    instances: tuple[str, ...]
    costs: tuple[tuple[float, ...], ...]  # costs[i][j]: instance i, solver j
    all_failed_instances: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "solvers", tuple(self.solvers))
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "costs", tuple(tuple(row) for row in self.costs))
        if len(self.costs) != len(self.instances):
            raise ValueError("one cost row required per instance")
        for row in self.costs:
            if len(row) != len(self.solvers):
                raise ValueError("one cost entry required per solver")
            if any(c <= 0 for c in row):
                raise ValueError("costs must be positive (use +inf for failure)")
        flagged = tuple(
            inst
            for inst, row in zip(self.instances, self.costs)
            if not any(math.isfinite(c) for c in row)
        )
        object.__setattr__(self, "all_failed_instances", flagged)
