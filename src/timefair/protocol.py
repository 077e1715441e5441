"""Time-fair evaluation protocol: restart loops under a strict time budget.

Every algorithm in a plan is driven by the identical loop: independent
runs back to back, each with a fresh derived seed, until the aggregate
time budget T is spent. A run ends when the hardest target is reached,
when the algorithm declares it is done, or when the budget cuts it off;
the final run is truncated at the boundary rather than skipped.

Budget checks happen between iterations. In virtual mode the cost of the
next iteration is known in advance (declared eval counts and charges), so
the runner never starts an iteration that would overrun T and the
aggregate time never exceeds T. In real mode overshoot is bounded by one
iteration and is reported in the manifest.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clock import ClockSpec, make_clock
from .core import Budget, RunRecord, TargetSpec, Termination, TrajectoryPoint
from .optimizers import Algorithm, StagnationRestart, SyntheticOverhead, make_optimizer
from .problems import ProblemInstance, get_problem
from .seeds import SEED_SCHEME_ID, derive_seed, subseed  # re-exported; see seeds.py

__all__ = [
    "AlgorithmSpec",
    "ExperimentPlan",
    "PlanError",
    "RunEvaluator",
    "best_of_restarts",
    "build_algorithm",
    "derive_seed",
    "run_plan",
    "run_time_fair",
    "SEED_SCHEME_ID",
]

logger = logging.getLogger(__name__)


class PlanError(ValueError):
    """An experiment plan that cannot be executed as specified."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry of a plan: catalog kind, parameters, wrappers.

    `label` must be unique within the plan and is the algorithm_id on all
    records. Wrappers: ``stagnation_restart`` (dict with plateau_window,
    plateau_epsilon, optional max_restarts) applied innermost, then
    ``synthetic_overhead`` (seconds per iteration).
    """

    label: str
    kind: str
    params: dict = field(default_factory=dict)
    wrappers: dict = field(default_factory=dict)


def build_algorithm(spec: AlgorithmSpec) -> Algorithm:
    algorithm = make_optimizer(spec.kind, spec.params, label=spec.label)
    wrappers = dict(spec.wrappers)
    stagnation = wrappers.pop("stagnation_restart", None)
    if stagnation is not None:
        algorithm = StagnationRestart(
            algorithm,
            plateau_window=stagnation["plateau_window"],
            plateau_epsilon=stagnation["plateau_epsilon"],
            max_restarts=stagnation.get("max_restarts"),
        )
    overhead = wrappers.pop("synthetic_overhead", None)
    if overhead is not None:
        algorithm = SyntheticOverhead(algorithm, overhead)
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
        for instance_id in self.instances:
            instance = get_problem(instance_id)  # raises KeyError for unknown ids
            if self.targets is not None:
                self.targets.resolve(instance.f_opt)
        for spec in self.algorithms:
            algorithm = build_algorithm(spec)  # raises for unknown kinds/params
            self._check_step_cost(algorithm)

    def _check_step_cost(self, algorithm: Algorithm) -> None:
        if not self.clock.is_virtual:
            if algorithm.step_charges():
                raise PlanError(
                    f"{algorithm.label}: synthetic overhead requires the virtual clock"
                )
            return
        cost = self.clock.iteration_overhead.get(algorithm.label, 0.0)
        cost += sum(algorithm.step_charges())
        cost += algorithm.evals_per_step * self.clock.cost_per_eval
        if cost <= 0 and self.budget.eval_cap is None:
            raise PlanError(
                f"{algorithm.label}: virtual step cost is zero and no eval_cap is set; "
                "the time budget could never be exhausted"
            )

    def algorithm_spec(self, label: str) -> AlgorithmSpec:
        for spec in self.algorithms:
            if spec.label == label:
                return spec
        raise KeyError(f"no algorithm labelled {label!r} in plan")


class RunEvaluator:
    """Counting wrapper around one run's objective evaluations.

    Clamps out-of-bounds queries (flagged), counts FEs, charges the
    virtual per-evaluation cost, and records best-so-far improvement
    events with their timestamps.
    """

    def __init__(self, instance: ProblemInstance, clock, cost_per_eval: float, origin: float):
        self.instance = instance
        self.clock = clock
        self.cost_per_eval = cost_per_eval
        self.origin = origin
        self.count = 0
        self.n_clamped = 0
        self.best_f = math.inf
        self.trajectory: list[TrajectoryPoint] = []

    def _account(self, f: float) -> None:
        self.count += 1
        if self.clock.is_virtual:
            self.clock.charge(self.cost_per_eval)
        if f < self.best_f:
            self.best_f = f
            self.trajectory.append(
                TrajectoryPoint(self.clock.now() - self.origin, self.count, f)
            )

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        clipped, moved = self.instance.clamp(x)
        if moved:
            self.n_clamped += 1
        f = self.instance.evaluate(clipped)
        self._account(f)
        return f

    def evaluate_rows(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        clipped = np.clip(xs, self.instance.lower, self.instance.upper)
        moved = clipped != xs
        self.n_clamped += int(np.any(moved, axis=1).sum())
        fs = self.instance.evaluate_rows(clipped)
        for f in fs:
            self._account(float(f))
        return fs

    def charge(self, amount: float) -> None:
        self.clock.charge(amount)


def _step_charge_plan(plan: ExperimentPlan, algorithm: Algorithm) -> list[float]:
    """Charges applied at the start of each iteration, in execution order."""
    if not plan.clock.is_virtual:
        return []
    return [plan.clock.iteration_overhead.get(algorithm.label, 0.0)] + algorithm.step_charges()


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
    eval_cap = plan.budget.eval_cap
    hardest = plan.targets.hardest(instance.f_opt) if plan.targets is not None else None
    virtual = plan.clock.is_virtual
    cost_per_eval = plan.clock.cost_per_eval if virtual else 0.0
    fixed_charges = _step_charge_plan(plan, algorithm)
    evals_per_step = algorithm.evals_per_step

    records: list[RunRecord] = []
    total_used = 0.0
    total_evals = 0
    run_index = 0
    while total_used < T and (eval_cap is None or total_evals < eval_cap):
        seed = derive_seed(
            plan.master_seed, algorithm_label, instance_id, repetition_index, run_index
        )
        run_clock = make_clock(plan.clock)
        origin = run_clock.now()
        evaluator = RunEvaluator(instance, run_clock, cost_per_eval, origin)
        state = algorithm.init(instance, seed)
        termination = Termination.BUDGET_EXHAUSTED
        max_step = 0.0
        while True:
            elapsed = run_clock.now() - origin
            if total_used + elapsed >= T:
                break
            if eval_cap is not None and total_evals + evaluator.count + evals_per_step > eval_cap:
                break
            if virtual:
                # Fold the exact charge sequence the step would apply, so the
                # projection matches the post-step clock bit for bit.
                projected = run_clock.now()
                for charge in fixed_charges:
                    projected += charge
                for _ in range(evals_per_step):
                    projected += cost_per_eval
                if total_used + (projected - origin) > T:
                    break
            step_start = run_clock.now()
            if fixed_charges:
                evaluator.charge(fixed_charges[0])
            report = algorithm.step(state, evaluator)
            max_step = max(max_step, run_clock.now() - step_start)
            if hardest is not None and state.best_f <= hardest:
                termination = Termination.TARGET_REACHED
                break
            if report.stop:
                termination = Termination.INTERNAL_STOP
                break
        elapsed = run_clock.now() - origin
        records.append(
            RunRecord(
                algorithm_id=algorithm_label,
                instance_id=instance_id,
                seed=seed,
                trajectory=tuple(evaluator.trajectory),
                time_used=elapsed,
                evals_used=evaluator.count,
                termination=termination,
                repetition=repetition_index,
                run_index=run_index,
                n_clamped=evaluator.n_clamped,
                max_step_seconds=max_step,
            )
        )
        total_used += elapsed
        total_evals += evaluator.count
        run_index += 1
        if evaluator.count == 0 and elapsed == 0.0:
            break  # no iteration can ever fit; don't spin on empty runs
    return records


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
    if parallel and len(tasks) > 1:
        with ProcessPoolExecutor() as pool:
            for (key, records), task in zip(pool.map(_run_task, tasks), tasks):
                grouped[key].extend(records)
                if progress is not None:
                    progress(f"{task[1]} on {task[2]} rep {task[3]}: {len(records)} run(s)")
    else:
        for task in tasks:
            key, records = _run_task(task)
            grouped[key].extend(records)
            if progress is not None:
                progress(f"{task[1]} on {task[2]} rep {task[3]}: {len(records)} run(s)")
    return grouped
