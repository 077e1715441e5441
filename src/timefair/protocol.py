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

A virtual run of an algorithm whose points do not depend on its
evaluations (one with `drawn` and `advance`: a bare random search) keeps
that rule but not the one step per iteration. It admits the points that
`drawn` shows (drawn, not evaluated yet) one check at a time, scores them
in one evaluator call as one-evaluation iterations that end at the first
row reaching the hardest target, and counts them with `advance`; its
records are those stepping would give.

A virtual plan's algorithm whose runs stack (one with `lanes`: a bare
PSO) runs a pair's repetitions side by side, as lanes in lockstep: each
tick gives every lane the same budget check, then one swarm update and
one objective call cover all of them, and each lane's rows go through its
own run's evaluator. A lane begins its next run, or ends its repetition,
where the per-run loop would, so its records are `run_time_fair`'s, bit
for bit. `run_time_fair` stays the one path of the real clock, whose time
is charged run by run, and of wrapped arms. `run_plan` runs a virtual
plan pair by pair, so `run`'s progress lines come pair by pair too, each
with the text it had (`simulate` prints none of them).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clock import ClockSpec, RealClock, VirtualClock
from .core import Budget, RunRecord, TargetSpec, Termination
from .optimizers import Algorithm, StagnationRestart, make_optimizer
from .problems import ProblemInstance, get_problem
from .seeds import derive_seed

__all__ = [
    "AlgorithmSpec",
    "ExperimentPlan",
    "PlanError",
    "RunEvaluator",
    "best_of_restarts",
    "run_plan",
    "run_time_fair",
]

logger = logging.getLogger(__name__)

_WARM_UP_SEED = 2**64  # above every u64 seed that derive_seed gives a run
# lanes stepped together hold about a dozen arrays of lanes * n * d
# doubles; at most this many doubles per array keeps a pair's memory
# bounded however many repetitions it has (about 3 MB in all)
_LANE_DOUBLES = 2**15


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

    Construction builds the spec's one `algorithm`, which every run of
    the spec steps, and checks ``synthetic_overhead`` into
    `step_overhead` (0.0 without the wrapper). An unknown kind, parameter
    or wrapper, or an overhead that is not finite and >= 0, raises here.
    """

    label: str
    kind: str
    params: dict = field(default_factory=dict)
    wrappers: dict = field(default_factory=dict)
    algorithm: Algorithm = field(init=False, compare=False, repr=False)
    step_overhead: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        algorithm = make_optimizer(self.kind, self.params)
        wrappers = dict(self.wrappers)
        stagnation = wrappers.pop("stagnation_restart", None)
        if stagnation is not None:
            algorithm = StagnationRestart(
                algorithm,
                plateau_window=stagnation["plateau_window"],
                plateau_epsilon=stagnation["plateau_epsilon"],
                max_restarts=stagnation.get("max_restarts"),
            )
        overhead = wrappers.pop("synthetic_overhead", 0.0)
        if wrappers:
            raise PlanError(f"unknown wrappers for {self.label}: {', '.join(sorted(wrappers))}")
        if not (math.isfinite(overhead) and overhead >= 0):
            raise PlanError(f"{self.label}: synthetic_overhead must be finite and >= 0")
        object.__setattr__(self, "algorithm", algorithm)
        object.__setattr__(self, "step_overhead", overhead)

    def describe(self) -> dict:
        """Effective parameters, echoed into run headers."""
        desc = self.algorithm.describe()
        if "synthetic_overhead" in self.wrappers:
            desc["synthetic_overhead_per_iteration"] = self.wrappers["synthetic_overhead"]
        return desc


@dataclass(frozen=True)
class ExperimentPlan:
    algorithms: tuple[AlgorithmSpec, ...]
    instances: tuple[str, ...]
    budget: Budget
    targets: Optional[TargetSpec]
    repetitions: int
    master_seed: int
    clock: ClockSpec
    # resolved once, by construction: each instance's problem, and its
    # absolute thresholds, easiest first (() without targets)
    problems: dict[str, ProblemInstance] = field(init=False, compare=False, repr=False)
    ladders: dict[str, tuple[float, ...]] = field(init=False, compare=False, repr=False)

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
        problems = {i: get_problem(i) for i in self.instances}  # KeyError for an unknown id
        ladders = {i: self.targets.resolve(p.f_opt) if self.targets else () for i, p in problems.items()}
        object.__setattr__(self, "problems", problems)
        object.__setattr__(self, "ladders", ladders)
        for spec in self.algorithms:
            if not self.clock.is_virtual and "synthetic_overhead" in spec.wrappers:
                raise PlanError(f"{spec.label}: synthetic overhead requires the virtual clock")
            if (
                self.clock.is_virtual
                and self.budget.eval_cap is None
                and self.run_clock(spec).at(spec.algorithm.evals_per_step, 1) <= 0
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
        return VirtualClock(self.clock.cost_per_eval, spec.step_overhead)


class RunEvaluator:
    """Counting wrapper around one run's objective evaluations.

    `evaluate_rows` is the one entry point of a run's steps (`account`
    is its second half, which a lockstep runner calls for each lane's rows
    of one shared call). It rejects batches of the
    wrong shape before anything is counted, clamps out-of-bounds queries
    (counted in `n_clamped`), counts FEs, and appends each best-so-far
    improvement's stamp, count and value to `stamps`, `counts` and
    `values`, the run's `elapsed`, `evals` and `best_f` columns; `best_f`
    is the one record of the run's best, read by the runner's target check
    and by the wrappers. A batch is one iteration, which the runner counts;
    a block (`stop` given) is several one-evaluation iterations, which the
    evaluator counts. Each improvement is stamped `clock.at` its own counts
    when it is recorded. A one-row batch strictly inside the float bounds
    (`lower_floats`, `upper_floats`) is scored as it is; any other batch of
    n rows, a block too, is clipped against `instance.bounds(n)`.
    """

    def __init__(self, instance: ProblemInstance, clock):
        self.instance = instance
        self.clock = clock
        self.count = 0
        self.iterations = 0
        self.n_clamped = 0
        self.best_f = math.inf
        self.stamps: list[float] = []
        self.counts: list[int] = []
        self.values: list[float] = []

    def elapsed(self) -> float:
        return self.clock.at(self.count, self.iterations)

    def evaluate_rows(self, xs, stop: Optional[float] = None) -> np.ndarray:
        """Objective values for a (n, d) batch; a point is a 1-row batch.

        With `stop`, the rows are a block: consecutive one-evaluation
        iterations after the `iterations` done so far. All are scored, but
        the block ends at the first row at or below `stop` (a NaN `stop`
        ends none): later rows are not counted, clamped or recorded, and
        only the values up to that row are returned.
        """
        xs = np.asarray(xs, dtype=float)
        instance = self.instance
        if xs.ndim != 2 or xs.shape[1] != instance.dimension:
            raise ValueError(instance.shape_error(xs))
        n = len(xs)
        changed = None
        # np.clip returns a single row strictly inside the bounds unchanged,
        # so it is evaluated as it is; any other batch is clipped. Strict,
        # because on a bound of 0.0 np.clip turns -0.0 into the bound's
        # zero; a NaN coordinate is inside nothing.
        if (
            n == 1
            and all(map(operator.lt, instance.lower_floats, row := xs.tolist()[0]))
            and all(map(operator.lt, row, instance.upper_floats))
        ):
            fs = instance.evaluate_rows(xs)
        else:
            clipped = xs.clip(*instance.bounds(n))
            changed = clipped != xs
            fs = instance.evaluate_rows(clipped)
        return self.account(fs, changed, stop)

    def account(
        self, fs: np.ndarray, changed: Optional[np.ndarray] = None, stop: Optional[float] = None
    ) -> np.ndarray:
        """Count, tally the clamped rows of, and scan for improvements the
        rows that `evaluate_rows` scored as `fs`; `changed` is its clip's
        (n, d) mask of moved coordinates (None: nothing was clipped) and
        `stop` its block's. A lockstep runner, which scores every lane's
        rows in one call, accounts each lane's rows here."""
        n = len(fs)
        iteration = self.iterations
        if stop is not None:
            reached = fs <= stop
            if np.count_nonzero(reached):
                n = int(reached.argmax()) + 1
                fs = fs[:n]
                if changed is not None:
                    changed = changed[:n]
            self.iterations += n
        if changed is not None and np.count_nonzero(changed):
            self.n_clamped += int(np.count_nonzero(changed.any(axis=1)))
        first = self.count
        self.count += n
        if n == 1:
            candidates = (0,) if fs.item() < self.best_f else ()
        else:
            # only a row below the best before the batch can improve on it
            # (NaN is below nothing)
            below = fs < self.best_f
            candidates = below.nonzero()[0].tolist() if np.count_nonzero(below) else ()
        for i in candidates:
            f = float(fs[i])
            if f < self.best_f:  # below the running best: rows in order
                count = first + i + 1
                self.best_f = f
                self.stamps.append(self.clock.at(count, iteration if stop is None else iteration + i + 1))
                self.counts.append(count)
                self.values.append(f)
        return fs


def run_time_fair(
    plan: ExperimentPlan,
    algorithm_label: str,
    instance_id: str,
    repetition_index: int,
) -> list[RunRecord]:
    """Execute the restart loop for one (algorithm, instance, repetition)
    of the plan's own; KeyError for another arm or instance.

    Returns the independent runs in launch order. In virtual mode the
    aggregate of time_used never exceeds T; replaying with the same plan
    reproduces every record bit for bit.
    """
    spec = plan.algorithm_spec(algorithm_label)
    algorithm = spec.algorithm
    instance = plan.problems[instance_id]
    T = plan.budget.wall_time_limit
    ladder = plan.ladders[instance_id]
    stop = ladder[-1] if ladder else math.nan  # hardest target; no value is at or below NaN
    eval_cap = math.inf if plan.budget.eval_cap is None else plan.budget.eval_cap
    evals_per_step = algorithm.evals_per_step
    step = algorithm.step
    # a virtual run of an algorithm whose points do not depend on its
    # evaluations scores the points it has drawn a block at a time
    drawn = algorithm.drawn if plan.clock.is_virtual else None

    records: list[RunRecord] = []
    total_used = 0.0
    total_evals = 0
    for run_index in itertools.count():
        seed = derive_seed(
            plan.master_seed, algorithm_label, instance_id, repetition_index, run_index
        )
        clock = plan.run_clock(spec)
        at = clock.at
        evaluator = RunEvaluator(instance, clock)
        state = algorithm.init(instance, seed)
        termination = Termination.BUDGET_EXHAUSTED
        max_step = 0.0
        last = evaluator.elapsed()
        # the most this run may have evaluated before an iteration starts
        # (integers, so the cap check stays exact)
        headroom = eval_cap - total_evals - evals_per_step
        while True:
            # the one stopping rule: the next iteration's evaluations fit the
            # cap, and the clock at its counts fits T. A virtual clock answers
            # the stamp the iteration will end on, a real one answers now.
            stamp = at(evaluator.count + evals_per_step, evaluator.iterations + 1)
            if evaluator.count > headroom or total_used + stamp > T:
                break
            if drawn is None:
                if stamp - last > max_step:
                    max_step = stamp - last
                last = stamp
                evaluator.iterations += 1
                done = step(state, evaluator)
            else:
                # the next iteration fits; admit the later drawn rows by
                # the same rule, one check each, and score them in one call,
                # which ends at a row that reaches the hardest target
                rows = drawn(state, instance)
                count, iterations = evaluator.count, evaluator.iterations
                stamps = [stamp]
                for i in range(1, len(rows)):
                    stamp = at(count + i + 1, iterations + i + 1)
                    if count + i > headroom or total_used + stamp > T:
                        break
                    stamps.append(stamp)
                k = len(evaluator.evaluate_rows(rows[: len(stamps)], stop))
                for stamp in stamps[:k]:
                    if stamp - last > max_step:
                        max_step = stamp - last
                    last = stamp
                done = algorithm.advance(state, k)
            if evaluator.best_f <= stop:
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
            elapsed=evaluator.stamps,
            evals=evaluator.counts,
            best_f=evaluator.values,
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


def _lockstep(
    plan: ExperimentPlan,
    algorithm_label: str,
    instance_id: str,
    repetitions: range,
) -> list[list[RunRecord]]:
    """`run_time_fair`'s records for each of `repetitions`, from a virtual
    plan's algorithm with `lanes`: the repetitions run side by side as its
    lanes, and each tick steps every lane once.

    Each tick, every lane gets `run_time_fair`'s budget check, ending its
    run (and starting the next, or ending the repetition) where that check
    fails; one `lanes.move` updates the lanes' swarms, one clip and one
    objective call score them all, and each lane's rows go through its
    own evaluator's `account`. A lane's run then ends, and its next one
    starts, where the per-run loop's would. Each lane's runs are the
    per-run loop's, bit for bit.
    """
    spec = plan.algorithm_spec(algorithm_label)
    algorithm = spec.algorithm
    instance = plan.problems[instance_id]
    T = plan.budget.wall_time_limit
    ladder = plan.ladders[instance_id]
    stop = ladder[-1] if ladder else math.nan  # hardest target; no value is at or below NaN
    eval_cap = math.inf if plan.budget.eval_cap is None else plan.budget.eval_cap
    n = algorithm.evals_per_step
    clock = plan.run_clock(spec)  # a virtual clock holds no state, so every run shares one
    at = clock.at

    class Lane:
        """One repetition: its logged runs, their totals, and its current run."""

        def __init__(self, repetition: int):
            self.repetition = repetition
            self.records: list[RunRecord] = []
            self.total_used = 0.0
            self.total_evals = 0
            self.begin(0)

        def begin(self, run_index: int) -> None:
            self.run_index = run_index
            self.seed = derive_seed(plan.master_seed, algorithm_label, instance_id, self.repetition, run_index)
            self.evaluator = RunEvaluator(instance, clock)
            self.max_step = 0.0
            self.last = self.evaluator.elapsed()
            self.headroom = eval_cap - self.total_evals - n
            self.begins = True  # its swarm is drawn at its first move

        def admits(self) -> bool:
            """`run_time_fair`'s stopping rule: True, with the iteration
            counted, if the run's next iteration fits."""
            evaluator = self.evaluator
            stamp = at(evaluator.count + n, evaluator.iterations + 1)
            if evaluator.count > self.headroom or self.total_used + stamp > T:
                return False
            if stamp - self.last > self.max_step:
                self.max_step = stamp - self.last
            self.last = stamp
            evaluator.iterations += 1
            return True

        def end(self, termination: Termination) -> bool:
            """Log the current run and begin the next; True, with nothing
            begun, when the run had no iteration and so ends the repetition."""
            evaluator = self.evaluator
            time_used = evaluator.elapsed()
            record = RunRecord(
                algorithm_id=algorithm_label,
                instance_id=instance_id,
                seed=self.seed,
                elapsed=evaluator.stamps,
                evals=evaluator.counts,
                best_f=evaluator.values,
                time_used=time_used,
                evals_used=evaluator.count,
                termination=termination,
                repetition=self.repetition,
                run_index=self.run_index,
                n_clamped=evaluator.n_clamped,
                max_step_seconds=max(self.max_step, time_used - self.last),
            )
            if evaluator.iterations == 0:
                self.records = self.records or [record]
                return True
            self.records.append(record)
            self.total_used += time_used
            self.total_evals += evaluator.count
            self.begin(self.run_index + 1)
            return False

        def steps(self) -> bool:
            """Admit the next iteration, in a new run if the current one's
            budget is spent; False once the repetition is over."""
            while not self.admits():
                if self.end(Termination.BUDGET_EXHAUSTED):
                    return False
            return True

    lanes = [Lane(repetition) for repetition in repetitions]
    swarms = algorithm.lanes(instance, len(lanes))
    live = lanes
    while True:
        slots = [slot for slot, lane in enumerate(live) if lane.steps()]
        if not slots:
            return [lane.records for lane in lanes]
        if len(slots) < len(live):
            live = [live[slot] for slot in slots]
            swarms.keep(slots)
        xs = swarms.move([lane.seed if lane.begins else None for lane in live])
        # the evaluator's clip and objective call, once for every lane's
        # (n, d) swarm; the bounds broadcast over the lanes
        clipped = xs.clip(*instance.bounds(n))
        changed = clipped != xs
        fs = instance.evaluate_rows(clipped.reshape(-1, instance.dimension)).reshape(len(live), n)
        if not np.count_nonzero(changed):
            changed = None
        for slot, lane in enumerate(live):
            lane.begins = False
            lane.evaluator.account(fs[slot], None if changed is None else changed[slot])
        for lane, done in zip(live, swarms.tell(fs)):
            if lane.evaluator.best_f <= stop:
                lane.end(Termination.TARGET_REACHED)
            elif done:
                lane.end(Termination.INTERNAL_STOP)


def _repetitions(
    plan: ExperimentPlan,
    algorithm_label: str,
    instance_id: str,
    repetitions: range,
) -> list[list[RunRecord]]:
    """Each of `repetitions`' records: in lockstep for a virtual plan's
    algorithm with `lanes`, as many lanes at a time as `_LANE_DOUBLES`
    allows, else from one `run_time_fair` call each."""
    algorithm = plan.algorithm_spec(algorithm_label).algorithm
    if plan.clock.is_virtual and algorithm.lanes is not None:
        size = max(1, _LANE_DOUBLES // (algorithm.evals_per_step * plan.problems[instance_id].dimension))
        return [
            records
            for start in range(0, len(repetitions), size)
            for records in _lockstep(plan, algorithm_label, instance_id, repetitions[start : start + size])
        ]
    return [run_time_fair(plan, algorithm_label, instance_id, r) for r in repetitions]


def run_plan(
    plan: ExperimentPlan,
    parallel: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[tuple[str, str], list[RunRecord]]:
    """Run the whole plan, grouping records by (algorithm, instance).

    On a real clock, repetition r runs each of the P pairs once, from
    pair r mod P on, so a slow spell of the host is shared by the arms.
    On a virtual clock, each pair runs its repetitions in one group, or
    with `parallel` in up to one contiguous group per worker, so that a
    one-pair plan still uses every worker; a group of a bare PSO runs in
    lockstep (see `_lockstep`). Either way, records come back in
    (repetition, run) order, one `progress` line per repetition. Parallel
    execution is virtual-mode only (concurrent timed runs would
    contaminate real wall-clock measurements).

    On a real clock, each pair first gets one untimed `init` and `step`,
    with a fixed seed that is no run's and an evaluator that is thrown
    away, so that a process's first use of an algorithm or objective
    (numpy imports ``numpy.random`` on first use, 5-8 ms) is not charged
    to the plan's first task.
    """
    if parallel and not plan.clock.is_virtual:
        raise PlanError("parallel execution is only available with the virtual clock")
    pairs = [(spec.label, instance_id) for spec in plan.algorithms for instance_id in plan.instances]
    P, R = len(pairs), plan.repetitions
    cpus = os.cpu_count() or 1
    if plan.clock.is_virtual:
        k = min(R, cpus) if parallel else 1
        groups = [range(R * g // k, R * (g + 1) // k) for g in range(k)]
        tasks = [(label, instance_id, group) for label, instance_id in pairs for group in groups]
    else:
        tasks = [(*pairs[(r + k) % P], range(r, r + 1)) for r in range(R) for k in range(P)]
        for label, instance_id in pairs:
            spec, instance = plan.algorithm_spec(label), plan.problems[instance_id]
            state = spec.algorithm.init(instance, _WARM_UP_SEED)
            spec.algorithm.step(state, RunEvaluator(instance, plan.run_clock(spec)))
    grouped: dict[tuple[str, str], list[RunRecord]] = {pair: [] for pair in pairs}
    with ExitStack() as stack:
        mapper = map
        if parallel and len(tasks) > 1:
            # imported here: it loads multiprocessing, which sequential runs never use
            from concurrent.futures import ProcessPoolExecutor

            # one worker per task at most: a pool forks all of its workers at the first submit
            workers = min(len(tasks), cpus)
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        run = functools.partial(_repetitions, plan)
        for (label, instance_id, group), results in zip(tasks, mapper(run, *zip(*tasks))):
            for repetition, records in zip(group, results):
                grouped[(label, instance_id)].extend(records)
                if progress is not None:
                    progress(f"{label} on {instance_id} rep {repetition}: {len(records)} run(s)")
    return grouped
