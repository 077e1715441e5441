"""Time-fair evaluation protocol: restart loops under a strict time budget.

Every algorithm in a plan is driven by the identical loop: independent
runs back to back, each with a fresh derived seed, until the aggregate
time budget T is spent. A run ends when its evaluator's best reaches the
hardest target, when the algorithm's `step` returns done, or when the
budget cuts it off; the final run is truncated at the boundary rather
than skipped.

Budget checks happen between iterations, with one rule in both clock
modes: an iteration starts only if the run's clock, asked `at` the counts
the iteration will end on, still fits the aggregate time into T (and its
evaluations into the eval cap). A virtual clock answers with the exact
stamp the iteration will end on, so the aggregate time never exceeds T; a
real clock answers "now", so overshoot is bounded by one iteration and is
reported in the manifest. A run in which no iteration fits ends the
repetition, and is logged only when it is the repetition's only run.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clock import ClockSpec, RealClock, VirtualClock
from .core import Budget, RunRecord, TargetSpec, Termination, TrajectoryPoint
from .optimizers import Algorithm, StagnationRestart, make_optimizer
from .problems import ProblemInstance, get_problem
from .seeds import derive_seed

__all__ = [
    "AlgorithmSpec",
    "ExperimentPlan",
    "PlanError",
    "RunEvaluator",
    "best_of_restarts",
    "build_algorithm",
    "run_plan",
    "run_time_fair",
]

logger = logging.getLogger(__name__)


class PlanError(ValueError):
    """An experiment plan that cannot be executed as specified."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry of a plan: catalog kind, parameters, wrappers.

    `label` must be unique within the plan and is the algorithm_id on all
    records. Wrappers: ``stagnation_restart`` (dict with plateau_window,
    plateau_epsilon, optional max_restarts) and ``synthetic_overhead``
    (virtual seconds charged per iteration, emulating an expensive variant
    without changing its search; the plan's virtual clock charges it).
    """

    label: str
    kind: str
    params: dict = field(default_factory=dict)
    wrappers: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """Effective parameters, echoed into run headers."""
        desc = build_algorithm(self).describe()
        if "synthetic_overhead" in self.wrappers:
            desc["synthetic_overhead_per_iteration"] = self.wrappers["synthetic_overhead"]
        return desc


def build_algorithm(spec: AlgorithmSpec) -> Algorithm:
    algorithm = make_optimizer(spec.kind, spec.params)
    wrappers = dict(spec.wrappers)
    stagnation = wrappers.pop("stagnation_restart", None)
    if stagnation is not None:
        algorithm = StagnationRestart(
            algorithm,
            plateau_window=stagnation["plateau_window"],
            plateau_epsilon=stagnation["plateau_epsilon"],
            max_restarts=stagnation.get("max_restarts"),
        )
    wrappers.pop("synthetic_overhead", None)  # charged by the clock, see run_clock
    if wrappers:
        raise PlanError(f"unknown wrappers for {spec.label}: {', '.join(sorted(wrappers))}")
    return algorithm


@dataclass(frozen=True)
class ExperimentPlan:
    algorithms: tuple[AlgorithmSpec, ...]
    instances: tuple[str, ...]
    budget: Budget
    targets: Optional[TargetSpec]
    repetitions: int
    master_seed: int
    clock: ClockSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.repetitions < 1:
            raise PlanError("repetitions must be >= 1")
        if not self.algorithms:
            raise PlanError("plan needs at least one algorithm")
        if not self.instances:
            raise PlanError("plan needs at least one instance")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise PlanError("algorithm labels must be unique")
        if len(set(self.instances)) != len(self.instances):
            raise PlanError("instance ids must be unique")
        for instance_id in self.instances:
            instance = get_problem(instance_id)  # raises KeyError for unknown ids
            if self.targets is not None:
                self.targets.resolve(instance.f_opt)
        for spec in self.algorithms:
            algorithm = build_algorithm(spec)  # raises for unknown kinds/params
            overhead = spec.wrappers.get("synthetic_overhead", 0.0)
            if not (math.isfinite(overhead) and overhead >= 0):
                raise PlanError(f"{spec.label}: synthetic_overhead must be finite and >= 0")
            if not self.clock.is_virtual and "synthetic_overhead" in spec.wrappers:
                raise PlanError(f"{spec.label}: synthetic overhead requires the virtual clock")
            if (
                self.clock.is_virtual
                and self.budget.eval_cap is None
                and self.run_clock(spec).at(algorithm.evals_per_step, 1) <= 0
            ):
                raise PlanError(
                    f"{spec.label}: virtual step cost is zero and no eval_cap is set; "
                    "the time budget could never be exhausted"
                )

    def algorithm_spec(self, label: str) -> AlgorithmSpec:
        for spec in self.algorithms:
            if spec.label == label:
                return spec
        raise KeyError(f"no algorithm labelled {label!r} in plan")

    def run_clock(self, spec: AlgorithmSpec) -> RealClock | VirtualClock:
        """A fresh clock for one run of `spec`: a real clock started now,
        or a virtual one charging the plan's cost per evaluation and the
        spec's ``synthetic_overhead`` per iteration."""
        if not self.clock.is_virtual:
            return RealClock()
        return VirtualClock(self.clock.cost_per_eval, spec.wrappers.get("synthetic_overhead", 0.0))


def _inside(lower: list, row: list, upper: list) -> bool:
    """Every ``lower[i] < row[i] < upper[i]``; False for a NaN coordinate.

    Strict: on a bound of 0.0, np.clip turns -0.0 into the bound's zero.
    """
    return all(map(operator.lt, lower, row)) and all(map(operator.lt, row, upper))


class RunEvaluator:
    """Counting wrapper around one run's objective evaluations.

    `evaluate_rows` is the one entry point. It rejects batches of the
    wrong shape before anything is counted, clamps out-of-bounds queries
    (counted in `n_clamped`), counts FEs, and records best-so-far
    improvement events; `best_f` is the one record of the run's best,
    read by the runner's target check and by the wrappers. The runner
    counts the iterations. Each improvement is stamped `clock.at` its own
    count when it is recorded.
    """

    def __init__(self, instance: ProblemInstance, clock):
        self.instance = instance
        self.clock = clock
        self.count = 0
        self.iterations = 0
        self.n_clamped = 0
        self.best_f = math.inf
        self.trajectory: list[TrajectoryPoint] = []
        # Python floats: one in-bounds row is checked without numpy calls
        self._lower = instance.lower.tolist()
        self._upper = instance.upper.tolist()

    def elapsed(self) -> float:
        return self.clock.at(self.count, self.iterations)

    def evaluate_rows(self, xs) -> np.ndarray:
        """Objective values for a (n, d) batch; a point is a 1-row batch."""
        xs = np.asarray(xs, dtype=float)
        instance = self.instance
        if xs.ndim != 2 or xs.shape[1] != instance.dimension:
            raise ValueError(instance.shape_error(xs))
        # np.clip returns a single row strictly inside the bounds unchanged,
        # so it is evaluated as it is; any other batch is clipped
        if len(xs) == 1 and _inside(self._lower, xs[0].tolist(), self._upper):
            fs = instance.evaluate_rows(xs)
        else:
            clipped = np.clip(xs, instance.lower, instance.upper)
            self.n_clamped += int(np.count_nonzero((clipped != xs).any(axis=1)))
            fs = instance.evaluate_rows(clipped)
        first = self.count
        self.count += len(fs)
        if len(fs) == 1:
            improving = (0,) if fs[0] < self.best_f else ()
        else:
            # row i improves on the best of everything before it (fmin skips NaN)
            before = np.fmin.accumulate(np.concatenate(([self.best_f], fs[:-1])))
            improving = np.flatnonzero(fs < before)
        for i in improving:
            count = first + int(i) + 1
            self.best_f = float(fs[i])
            self.trajectory.append(
                TrajectoryPoint(self.clock.at(count, self.iterations), count, self.best_f)
            )
        return fs


def run_time_fair(
    plan: ExperimentPlan,
    algorithm_label: str,
    instance_id: str,
    repetition_index: int,
) -> list[RunRecord]:
    """Execute the restart loop for one (algorithm, instance, repetition).

    Returns the independent runs in launch order. In virtual mode the
    aggregate of time_used never exceeds T; replaying with the same plan
    reproduces every record bit for bit.
    """
    spec = plan.algorithm_spec(algorithm_label)
    algorithm = build_algorithm(spec)
    instance = get_problem(instance_id)
    T = plan.budget.wall_time_limit
    hardest = plan.targets.hardest(instance.f_opt) if plan.targets is not None else None
    eval_cap = math.inf if plan.budget.eval_cap is None else plan.budget.eval_cap
    evals_per_step = algorithm.evals_per_step

    records: list[RunRecord] = []
    total_used = 0.0
    total_evals = 0
    for run_index in itertools.count():
        seed = derive_seed(
            plan.master_seed, algorithm_label, instance_id, repetition_index, run_index
        )
        clock = plan.run_clock(spec)
        evaluator = RunEvaluator(instance, clock)
        state = algorithm.init(instance, seed)
        termination = Termination.BUDGET_EXHAUSTED
        max_step = 0.0
        last = evaluator.elapsed()
        while True:
            # the one stopping rule: the next iteration's evaluations fit the
            # cap, and the clock at its counts fits T. A virtual clock answers
            # the stamp the iteration will end on, a real one answers now.
            stamp = clock.at(evaluator.count + evals_per_step, evaluator.iterations + 1)
            if total_evals + evaluator.count + evals_per_step > eval_cap or total_used + stamp > T:
                break
            max_step, last = max(max_step, stamp - last), stamp
            evaluator.iterations += 1
            done = algorithm.step(state, evaluator)
            if hardest is not None and evaluator.best_f <= hardest:
                termination = Termination.TARGET_REACHED
                break
            if done:
                termination = Termination.INTERNAL_STOP
                break
        time_used = evaluator.elapsed()
        record = RunRecord(
            algorithm_id=algorithm_label,
            instance_id=instance_id,
            seed=seed,
            trajectory=tuple(evaluator.trajectory),
            time_used=time_used,
            evals_used=evaluator.count,
            termination=termination,
            repetition=repetition_index,
            run_index=run_index,
            n_clamped=evaluator.n_clamped,
            # consecutive stamps: exact steps on a virtual clock; on a real
            # one, the time between stopping checks, which bounds overshoot
            max_step_seconds=max(max_step, time_used - last),
        )
        if evaluator.iterations == 0:
            # no iteration fits: the repetition ends, without an empty run
            # unless no iteration could ever fit
            return records or [record]
        records.append(record)
        total_used += time_used
        total_evals += evaluator.count


def best_of_restarts(records) -> float:
    """Minimum final best value across independent runs (Def. best-of-k).

    Runs that never evaluated contribute +inf; if every run is empty the
    result is +inf and a warning flags the vacuous aggregate.
    """
    records = list(records)
    if not records:
        raise ValueError("best_of_restarts requires at least one record")
    best = min(record.final_best for record in records)
    if math.isinf(best):
        logger.warning(
            "best_of_restarts over %d run(s) with no evaluations; returning +inf",
            len(records),
        )
    return best


def _run_task(args) -> tuple[tuple[str, str], list[RunRecord]]:
    plan, label, instance_id, repetition = args
    return (label, instance_id), run_time_fair(plan, label, instance_id, repetition)


def run_plan(
    plan: ExperimentPlan,
    parallel: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[tuple[str, str], list[RunRecord]]:
    """Run the whole plan, grouping records by (algorithm, instance).

    Parallel execution is virtual-mode only (concurrent timed runs would
    contaminate real wall-clock measurements); records are returned in
    deterministic (repetition, run) order either way.
    """
    if parallel and not plan.clock.is_virtual:
        raise PlanError("parallel execution is only available with the virtual clock")
    tasks = [
        (plan, spec.label, instance_id, repetition)
        for spec in plan.algorithms
        for instance_id in plan.instances
        for repetition in range(plan.repetitions)
    ]
    grouped: dict[tuple[str, str], list[RunRecord]] = {
        (spec.label, instance_id): []
        for spec in plan.algorithms
        for instance_id in plan.instances
    }
    with ExitStack() as stack:
        mapper = map
        if parallel and len(tasks) > 1:
            mapper = stack.enter_context(ProcessPoolExecutor()).map
        for (key, records), task in zip(mapper(_run_task, tasks), tasks):
            grouped[key].extend(records)
            if progress is not None:
                progress(f"{task[1]} on {task[2]} rep {task[3]}: {len(records)} run(s)")
    return grouped
