import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timefair.cli import demo_config, plan_from_config, validate_config
from timefair.clock import ClockSpec, RealClock, VirtualClock
from timefair.core import Budget, RunRecord, TargetSpec, Termination, TrajectoryPoint, validate
from timefair.problems import ProblemInstance, get_problem
from timefair.protocol import (
    AlgorithmSpec,
    ExperimentPlan,
    PlanError,
    RunEvaluator,
    best_of_restarts,
    derive_seed,
    run_plan,
    run_time_fair,
)

VIRTUAL = ClockSpec(mode="virtual", cost_per_eval=0.0078125)


def scenario_plan(repetitions=1, targets=(100.0, 50.0, 20.0, 10.0, 5.0)):
    return ExperimentPlan(
        algorithms=(
            AlgorithmSpec("pso", "pso", {"swarm_size": 40, "max_iterations": 32}),
            AlgorithmSpec(
                "pso-heavy",
                "pso",
                {"swarm_size": 40, "max_iterations": 32},
                {"synthetic_overhead": 1.25},
            ),
        ),
        instances=("rastrigin-d10",),
        budget=Budget(wall_time_limit=50.0),
        targets=TargetSpec(kind="absolute", values=targets),
        repetitions=repetitions,
        master_seed=170,
        clock=VIRTUAL,
    )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "p", 0, 0) == derive_seed(1, "a", "p", 0, 0)

    def test_run_index_changes_seed(self):
        assert derive_seed(1, "a", "p", 0, 0) != derive_seed(1, "a", "p", 0, 1)

    def test_every_input_matters(self):
        base = derive_seed(1, "a", "p", 0, 0)
        assert base != derive_seed(2, "a", "p", 0, 0)
        assert base != derive_seed(1, "b", "p", 0, 0)
        assert base != derive_seed(1, "a", "q", 0, 0)
        assert base != derive_seed(1, "a", "p", 1, 0)

    def test_hundred_thousand_seeds_have_no_collisions(self):
        seeds = {
            derive_seed(42, "pso", "rastrigin-d10", rep, run)
            for rep in range(100)
            for run in range(1000)
        }
        assert len(seeds) == 100_000


class TestRunTimeFair:
    def test_baseline_gets_exactly_five_restarts(self):
        records = run_time_fair(scenario_plan(), "pso", "rastrigin-d10", 0)
        assert len(records) == 5
        assert all(r.time_used == 10.0 for r in records)
        assert all(r.termination is Termination.INTERNAL_STOP for r in records)
        assert [r.run_index for r in records] == [0, 1, 2, 3, 4]

    def test_heavy_variant_gets_single_run(self):
        records = run_time_fair(scenario_plan(), "pso-heavy", "rastrigin-d10", 0)
        assert len(records) == 1
        assert records[0].time_used == 50.0

    def test_degenerate_budget_yields_one_empty_run(self):
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("pso", "pso", {"swarm_size": 40}),),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=0.1),  # one iteration costs 0.3125
            targets=None,
            repetitions=1,
            master_seed=1,
            clock=VIRTUAL,
        )
        records = run_time_fair(plan, "pso", "sphere-d2", 0)
        assert len(records) == 1
        assert records[0].termination is Termination.BUDGET_EXHAUSTED
        assert records[0].evals_used == 0
        assert records[0].trajectory == ()

    def test_virtual_budget_is_never_exceeded(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cpe = float(rng.uniform(0.001, 0.05))  # deliberately non-dyadic
            T = float(rng.uniform(0.2, 3.0))
            plan = ExperimentPlan(
                algorithms=(
                    AlgorithmSpec(
                        "rs",
                        "random-search",
                        {"max_iterations": int(rng.integers(3, 30))},
                    ),
                ),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=T),
                targets=None,
                repetitions=1,
                master_seed=int(rng.integers(0, 2**32)),
                clock=ClockSpec(mode="virtual", cost_per_eval=cpe),
            )
            records = run_time_fair(plan, "rs", "sphere-d2", 0)
            total = 0.0
            for record in records:
                total += record.time_used
            assert total <= T

    def test_replay_is_bit_identical(self):
        a = run_time_fair(scenario_plan(), "pso", "rastrigin-d10", 0)
        b = run_time_fair(scenario_plan(), "pso", "rastrigin-d10", 0)
        assert a == b

    def test_first_hit_consistency(self):
        plan = scenario_plan()
        records = run_time_fair(plan, "pso", "rastrigin-d10", 0)
        from timefair.metrics import time_to_target

        for record in records:
            for q in plan.targets.resolve(0.0):
                expected = None
                for point in record.trajectory:
                    if point.best_f <= q:
                        expected = point.elapsed
                        break
                assert time_to_target(record, q) == expected

    def test_early_success_ends_run_and_loop_restarts(self):
        # hardest target is trivially reachable, so every run ends early
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("rs", "random-search", {}),),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=1.0),
            targets=TargetSpec(kind="absolute", values=(1000.0,)),
            repetitions=1,
            master_seed=9,
            clock=ClockSpec(mode="virtual", cost_per_eval=0.125),
        )
        records = run_time_fair(plan, "rs", "sphere-d2", 0)
        assert len(records) > 1
        hardest = 1000.0
        for record in records[:-1]:
            assert record.termination is Termination.TARGET_REACHED
            assert record.trajectory[-1].best_f <= hardest

    def test_eval_cap_is_never_exceeded(self):
        for clock, T in ((ClockSpec(mode="virtual", cost_per_eval=0.001), 100.0),
                         (ClockSpec(mode="real"), 0.25)):
            plan = ExperimentPlan(
                algorithms=(AlgorithmSpec("pso", "pso", {"swarm_size": 8}),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=T, eval_cap=100),
                targets=None,
                repetitions=1,
                master_seed=4,
                clock=clock,
            )
            records = run_time_fair(plan, "pso", "sphere-d2", 0)
            assert sum(r.evals_used for r in records) <= 100
            # the capped run alone: the run after it fits no iteration, so
            # it ends the repetition unlogged (and no clock spins until T)
            assert len(records) == 1
            if clock.is_virtual:
                # 12 full iterations of 8 evals fit into the cap of 100
                assert sum(r.evals_used for r in records) == 96

    def test_no_repetition_ends_in_an_empty_run(self):
        # T = 47 s is no multiple of the demo arms' iteration costs, so
        # each repetition's last run ends with budget left over that fits
        # no further iteration; no empty run is logged after it
        cfg = demo_config()
        cfg["budget"]["wall_time_limit"] = 47.0
        grouped = run_plan(plan_from_config(validate_config(cfg)))
        counts = {label: len(records) for (label, _), records in grouped.items()}
        assert counts == {"pso": 15, "pso-heavy": 3, "random-search": 15}
        for records in grouped.values():
            assert all(r.evals_used > 0 for r in records)
            for rep in range(3):
                assert sum(r.time_used for r in records if r.repetition == rep) <= 47.0

    def test_real_clock_reads_per_iteration(self, monkeypatch):
        # in real mode the harness's own clock reads are charged to the
        # algorithm: one per iteration (the stopping rule, whose stamps also
        # time the steps) and one per improvement, plus a few per run
        reads = 0

        def now(self):
            nonlocal reads
            reads += 1
            return float(reads)

        monkeypatch.setattr(RealClock, "now", now)
        for kind, params, evals_per_step in (
            ("pso", {"swarm_size": 6, "max_iterations": 50}, 6),
            ("random-search", {"max_iterations": 200}, 1),
        ):
            plan = ExperimentPlan(
                algorithms=(AlgorithmSpec(kind, kind, params),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=3000.0),
                targets=None,
                repetitions=1,
                master_seed=2,
                clock=ClockSpec(mode="real"),
            )
            reads = 0
            records = run_time_fair(plan, kind, "sphere-d2", 0)
            iterations = sum(r.evals_used for r in records) // evals_per_step
            improvements = sum(len(r.trajectory) for r in records)
            assert iterations > 500 and len(records) > 5
            assert reads <= iterations + improvements + 4 * (len(records) + 1)

    def test_time_used_is_the_clock_at_the_run_counts(self):
        # non-dyadic evaluation and iteration costs: each run's time_used is
        # exactly at(evals_used, iterations), and the budget still holds
        rng = np.random.default_rng(8)
        for trial in range(30):
            cpe = float(rng.uniform(0.001, 0.05))
            synthetic = float(rng.uniform(0.0, 0.1))
            T = float(rng.uniform(0.5, 4.0))
            swarm = int(rng.integers(2, 9))
            wrappers = {"synthetic_overhead": synthetic}
            if trial % 2:
                wrappers["stagnation_restart"] = {"plateau_window": 2, "plateau_epsilon": 0.1}
            plan = ExperimentPlan(
                algorithms=(
                    AlgorithmSpec(
                        "rs", "random-search", {"max_iterations": int(rng.integers(3, 30))}, wrappers
                    ),
                    AlgorithmSpec(
                        "pso", "pso", {"swarm_size": swarm, "max_iterations": 5}, wrappers
                    ),
                ),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=T),
                targets=None,
                repetitions=1,
                master_seed=int(rng.integers(0, 2**32)),
                clock=ClockSpec(mode="virtual", cost_per_eval=cpe),
            )
            for label, evals_per_step in (("rs", 1), ("pso", swarm)):
                clock = VirtualClock(cpe, synthetic)
                records = run_time_fair(plan, label, "sphere-d2", 0)
                total = 0.0
                for record in records:
                    iterations = record.evals_used // evals_per_step
                    assert record.time_used == clock.at(record.evals_used, iterations)
                    assert all(
                        p.elapsed == clock.at(p.evals, -(-p.evals // evals_per_step))
                        for p in record.trajectory
                    )
                    total += record.time_used
                assert total <= T

    def test_thousand_protocol_records_validate(self):
        produced = []
        rng = np.random.default_rng(11)
        rep = 0
        while len(produced) < 1000:
            plan = ExperimentPlan(
                algorithms=(
                    AlgorithmSpec("rs", "random-search", {"max_iterations": int(rng.integers(2, 12))}),
                ),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=float(rng.uniform(0.05, 0.8))),
                targets=TargetSpec(kind="relative", values=(10.0, 0.01)),
                repetitions=1,
                master_seed=int(rng.integers(0, 2**32)),
                clock=ClockSpec(mode="virtual", cost_per_eval=float(rng.uniform(0.002, 0.02))),
            )
            produced.extend(run_time_fair(plan, "rs", "sphere-d2", rep))
            rep += 1
        for record in produced[:1000]:
            assert validate(record) == []


class TestBestOfRestarts:
    def _with_final(self, final, run_index=0):
        return RunRecord(
            algorithm_id="a",
            instance_id="sphere-d2",
            seed=1,
            trajectory=(TrajectoryPoint(1.0, 1, final),),
            time_used=1.0,
            evals_used=1,
            termination=Termination.INTERNAL_STOP,
            run_index=run_index,
        )

    def test_minimum_across_runs(self):
        records = [self._with_final(f, i) for i, f in enumerate([8.7, 4.1, 6.0])]
        assert best_of_restarts(records) == 4.1

    def test_single_run_returns_its_own_final(self):
        assert best_of_restarts([self._with_final(3.25)]) == 3.25

    def test_all_empty_runs_return_infinity(self):
        empty = RunRecord(
            algorithm_id="a",
            instance_id="sphere-d2",
            seed=1,
            trajectory=(),
            time_used=0.0,
            evals_used=0,
            termination=Termination.BUDGET_EXHAUSTED,
        )
        assert math.isinf(best_of_restarts([empty, empty]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            best_of_restarts([])


class TestPlanValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(PlanError):
            ExperimentPlan(
                algorithms=(AlgorithmSpec("x", "pso"), AlgorithmSpec("x", "random-search")),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=1.0),
                targets=None,
                repetitions=1,
                master_seed=1,
                clock=VIRTUAL,
            )

    def test_unknown_instance_rejected(self):
        with pytest.raises(KeyError):
            ExperimentPlan(
                algorithms=(AlgorithmSpec("x", "pso"),),
                instances=("nosuch-d3",),
                budget=Budget(wall_time_limit=1.0),
                targets=None,
                repetitions=1,
                master_seed=1,
                clock=VIRTUAL,
            )

    def test_duplicate_instance_ids_rejected(self):
        # a repeated id would run every repetition twice under one key
        with pytest.raises(PlanError, match="instance ids must be unique"):
            ExperimentPlan(
                algorithms=(AlgorithmSpec("x", "pso"),),
                instances=("sphere-d2", "rastrigin-d2", "sphere-d2"),
                budget=Budget(wall_time_limit=1.0),
                targets=None,
                repetitions=1,
                master_seed=1,
                clock=VIRTUAL,
            )

    def test_real_clock_rejects_synthetic_overhead(self):
        with pytest.raises(PlanError):
            ExperimentPlan(
                algorithms=(AlgorithmSpec("x", "pso", wrappers={"synthetic_overhead": 1.0}),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=1.0),
                targets=None,
                repetitions=1,
                master_seed=1,
                clock=ClockSpec(mode="real"),
            )

    def test_zero_cost_virtual_plan_rejected(self):
        with pytest.raises(PlanError):
            ExperimentPlan(
                algorithms=(AlgorithmSpec("x", "random-search"),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=1.0),
                targets=None,
                repetitions=1,
                master_seed=1,
                clock=ClockSpec(mode="virtual", cost_per_eval=0.0),
            )

    def test_zero_repetitions_rejected(self):
        with pytest.raises(PlanError):
            ExperimentPlan(
                algorithms=(AlgorithmSpec("x", "random-search"),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=1.0),
                targets=None,
                repetitions=0,
                master_seed=1,
                clock=VIRTUAL,
            )


class TestRunPlan:
    def test_grouping_covers_all_pairs(self):
        plan = scenario_plan(repetitions=2)
        grouped = run_plan(plan)
        assert set(grouped) == {("pso", "rastrigin-d10"), ("pso-heavy", "rastrigin-d10")}
        assert len(grouped[("pso", "rastrigin-d10")]) == 10  # 5 runs x 2 reps
        assert len(grouped[("pso-heavy", "rastrigin-d10")]) == 2

    def test_parallel_matches_sequential(self):
        plan = scenario_plan(repetitions=2)
        sequential = run_plan(plan, parallel=False)
        parallel = run_plan(plan, parallel=True)
        assert sequential == parallel

    def test_parallel_requires_virtual_clock(self):
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("rs", "random-search", {"max_iterations": 2}),),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=0.05),
            targets=None,
            repetitions=1,
            master_seed=1,
            clock=ClockSpec(mode="real"),
        )
        with pytest.raises(PlanError):
            run_plan(plan, parallel=True)


def _tabled(values):
    """A 1-d instance whose objective at x = i is values[i]."""
    table = np.asarray(values, dtype=float)
    return ProblemInstance(
        instance_id="table-d1",
        dimension=1,
        lower=np.array([0.0]),
        upper=np.array([len(values) - 1.0]),
        f_opt=None,
        rows_fn=lambda xs: table[xs[:, 0].astype(int)],
    )


class TestRunEvaluator:
    def _row_by_row(self, instance, batches):
        evaluator = RunEvaluator(instance, VirtualClock(0.1, 0.3))
        for batch in batches:
            evaluator.iterations += 1
            for x in np.asarray(batch, dtype=float):
                evaluator.evaluate_rows(x[None])
        return evaluator

    def _batched(self, instance, batches):
        evaluator = RunEvaluator(instance, VirtualClock(0.1, 0.3))
        for batch in batches:
            evaluator.iterations += 1
            evaluator.evaluate_rows(np.asarray(batch, dtype=float))
        return evaluator

    def test_batch_trajectory_equals_row_by_row(self):
        values = [5.0, 5.0, 3.0, 3.0, 4.0, 1.0, 1.0, 0.5, 2.0, 0.5, 0.25]
        instance = _tabled(values)
        # the second batch opens on a row that does not improve, and ties
        batches = [[[0], [1], [2], [3]], [[4], [3], [5], [6], [8]], [[7], [9], [10], [10]]]
        batched = self._batched(instance, batches)
        expected = [(1, 5.0), (3, 3.0), (7, 1.0), (10, 0.5), (12, 0.25)]
        assert [(p.evals, p.best_f) for p in batched.trajectory] == expected
        assert batched.trajectory == self._row_by_row(instance, batches).trajectory
        assert [p.elapsed for p in batched.trajectory] == [
            VirtualClock(0.1, 0.3).at(evals, iteration)
            for evals, iteration in ((1, 1), (3, 1), (7, 2), (10, 3), (12, 3))
        ]

    def test_random_pso_batches_equal_row_by_row(self):
        rng = np.random.default_rng(2)
        instance = _tabled(np.round(rng.uniform(0, 6, size=64)))  # many ties
        batches = [rng.integers(0, 64, size=(int(rng.integers(2, 12)), 1)) for _ in range(40)]
        batched = self._batched(instance, batches)
        one_by_one = self._row_by_row(instance, batches)
        assert batched.trajectory == one_by_one.trajectory
        assert batched.count == one_by_one.count == sum(len(b) for b in batches)

    def test_nan_rows_never_improve(self):
        instance = _tabled([4.0, float("nan"), 3.0, 5.0])
        batched = self._batched(instance, [[[1], [0], [1], [3], [2]]])
        assert [(p.evals, p.best_f) for p in batched.trajectory] == [(2, 4.0), (5, 3.0)]
        assert batched.trajectory == self._row_by_row(instance, [[[1], [0], [1], [3], [2]]]).trajectory

    @pytest.mark.parametrize(
        "call",
        [
            lambda ev: ev.evaluate_rows([1.0]),
            lambda ev: ev.evaluate_rows([1.0, 2.0, 3.0, 4.0]),
            lambda ev: ev.evaluate_rows(np.ones((1, 1, 5))),
            lambda ev: ev.evaluate_rows(1.0),
            lambda ev: ev.evaluate_rows(np.ones((3, 1))),
            lambda ev: ev.evaluate_rows(np.ones((2, 6))),
            lambda ev: ev.evaluate_rows(np.ones(5)),
        ],
    )
    def test_mis_shaped_points_are_rejected_uncounted(self, call):
        evaluator = RunEvaluator(get_problem("sphere-d5"), VirtualClock(0.1, 0.0))
        with pytest.raises(ValueError, match=r"^sphere-d5: expected \(n, 5\) batch, got shape"):
            call(evaluator)
        assert (evaluator.count, evaluator.n_clamped, evaluator.trajectory) == (0, 0, [])
        assert math.isinf(evaluator.best_f)


# ±0.0 sit on a bound in the first two coordinates and inside the third; the
# objective tells -0.0 from 0.0, so a changed sign bit would show in its value
SIGNED = ProblemInstance(
    instance_id="signed-d3",
    dimension=3,
    lower=np.array([0.0, -1.0, -2.0]),
    upper=np.array([1.0, 0.0, 2.0]),
    f_opt=None,
    rows_fn=lambda xs: np.sum(xs**2 + np.copysign(0.5, xs) * np.arange(1.0, 4.0), axis=1),
)


def _coordinate(lo, hi):
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo, hi, 0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=False, allow_infinity=False),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(*(_coordinate(lo, hi) for lo, hi in zip(SIGNED.lower, SIGNED.upper))),
        min_size=1,
        max_size=6,
    )
)
def test_single_row_evaluation_matches_a_clip_oracle(points):
    clock = VirtualClock(0.1, 0.3)
    evaluator = RunEvaluator(SIGNED, clock)
    evaluator.iterations = 1
    values = [float(evaluator.evaluate_rows([x])[0]) for x in points]

    best, n_clamped, expected_values, expected_trajectory = math.inf, 0, [], []
    for count, x in enumerate(points, start=1):
        row = np.array([x], dtype=float)
        clipped = np.clip(row, SIGNED.lower, SIGNED.upper)
        n_clamped += int((clipped != row).any())
        f = float(SIGNED.rows_fn(clipped)[0])
        expected_values.append(f)
        if f < best:
            best = f
            expected_trajectory.append(TrajectoryPoint(clock.at(count, 1), count, f))

    assert np.array(values).tobytes() == np.array(expected_values).tobytes()
    assert evaluator.n_clamped == n_clamped
    assert evaluator.count == len(points)
    assert evaluator.trajectory == expected_trajectory
