import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from timefair import problems, protocol
from timefair.cli import demo_config, plan_from_config, validate_config
from timefair.clock import ClockSpec, RealClock, VirtualClock
from timefair.core import Budget, RunRecord, TargetSpec, Termination, validate
from timefair.metrics import RunColumns, first_hits
from timefair.optimizers import RANDOM_SEARCH_BLOCK, Algorithm, make_optimizer
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
from timefair.report import write_run_log

from conftest import columns, edge_config, evaluator_columns, run_values, time_to_target
from test_problems import ORACLES

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
        assert (records[0].elapsed, records[0].evals, records[0].best_f) == ((), (), ())

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
        ladder = plan.targets.resolve(0.0)
        hits = first_hits(RunColumns.of(records), ladder)
        for k, record in enumerate(records):
            for q, times in zip(ladder, hits):
                expected = math.inf
                for elapsed, best_f in zip(record.elapsed, record.best_f):
                    if best_f <= q:
                        expected = elapsed
                        break
                assert time_to_target(record, q) == times[k] == expected

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
            assert record.best_f[-1] <= hardest

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

    @pytest.mark.parametrize("cap, runs", [(100, [24, 24, 24, 24]), (104, [24, 24, 24, 24, 8])])
    def test_eval_cap_holds_across_restarts(self, cap, runs):
        # each run stops after 3 iterations of 8 evaluations, so only the
        # runs together reach the cap: every cap check counts the
        # evaluations earlier runs spent
        for clock, T in ((ClockSpec(mode="virtual", cost_per_eval=0.001), 100.0),
                         (ClockSpec(mode="real"), 0.25)):
            plan = ExperimentPlan(
                algorithms=(AlgorithmSpec("pso", "pso", {"swarm_size": 8, "max_iterations": 3}),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=T, eval_cap=cap),
                targets=None,
                repetitions=1,
                master_seed=4,
                clock=clock,
            )
            records = run_time_fair(plan, "pso", "sphere-d2", 0)
            assert sum(r.evals_used for r in records) <= cap
            if clock.is_virtual:
                assert [r.evals_used for r in records] == runs
                assert sum(runs) == cap - cap % 8

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
            improvements = sum(len(r.elapsed) for r in records)
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
                        elapsed == clock.at(evals, -(-evals // evals_per_step))
                        for elapsed, evals in zip(record.elapsed, record.evals)
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
            assert validate(*run_values(record)) == []


class _Stepped(Algorithm):
    """Forwards to an algorithm without its `drawn`, so the runner steps it
    one iteration at a time."""

    def __init__(self, inner: Algorithm):
        self.inner = inner
        self.evals_per_step = inner.evals_per_step

    def describe(self) -> dict:
        return self.inner.describe()

    def init(self, instance, seed):
        return self.inner.init(instance, seed)

    def step(self, state, evaluator) -> bool:
        return self.inner.step(state, evaluator)


def _hexed(value):
    """`value` with every float, also inside tuples, as its float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(_hexed, value))
    return value


def _block_and_stepped(config: dict) -> tuple[dict, dict]:
    """Every (label, instance, repetition)'s records from the plan of
    `config` as it runs, and with every arm stepped."""
    plans = [plan_from_config(validate_config(config)) for _ in range(2)]
    for spec in plans[1].algorithms:
        object.__setattr__(spec, "algorithm", _Stepped(spec.algorithm))
    return tuple(
        {
            (spec.label, instance_id, rep): run_time_fair(plan, spec.label, instance_id, rep)
            for spec in plan.algorithms
            for instance_id in plan.instances
            for rep in range(plan.repetitions)
        }
        for plan in plans
    )


def _bits(runs: dict) -> dict:
    """The records field by field, floats as float.hex."""
    return {key: [_hexed(dataclasses.astuple(r)) for r in records] for key, records in runs.items()}


def _objective_calls(monkeypatch) -> list[int]:
    """The number of rows of every objective call made from now on."""
    calls = []
    seam = ProblemInstance.evaluate_rows

    def counted(self, xs):
        calls.append(len(xs))
        return seam(self, xs)

    monkeypatch.setattr(ProblemInstance, "evaluate_rows", counted)
    return calls


class TestBlockPath:
    """A virtual run of a bare random search scores its drawn block several
    iterations per call; stepping the same plan is the oracle."""

    def test_block_runs_equal_stepped_runs(self):
        block, stepped = _block_and_stepped(edge_config())
        assert _bits(block) == _bits(stepped)
        # the config ends random-search runs inside a block in every way
        ends = {
            (label, r.termination, r.evals_used % RANDOM_SEARCH_BLOCK != 0)
            for (label, _, _), records in block.items()
            for r in records
        }
        for label in ("rs", "rs-70", "rs-100"):
            assert (label, Termination.TARGET_REACHED, True) in ends
        for label in ("rs-70", "rs-100"):  # 70 and 100 are no multiples of the block size
            assert (label, Termination.INTERNAL_STOP, True) in ends
        # the eval cap ends each repetition of rs inside a block
        assert ("rs", Termination.BUDGET_EXHAUSTED, True) in ends
        assert {sum(r.evals_used for r in block[("rs", "rastrigin-d3", rep)]) for rep in range(4)} == {700}
        # T ends rs-100 runs inside their second, 36-row block
        assert any(
            r.termination is Termination.BUDGET_EXHAUSTED and 64 < r.evals_used < 100
            for (label, _, _), records in block.items()
            if label == "rs-100"
            for r in records
        )

    def test_edge_run_logs_match_their_pinned_digests(self, tmp_path):
        # the stepped oracle shares the evaluator and the draws with the block
        # path, so it cannot see a drift of both; these logs pin every way a
        # run ends inside a block, at a cost per evaluation that is not dyadic
        plan = plan_from_config(validate_config(edge_config()))
        digests = {}
        for (label, instance_id), records in run_plan(plan).items():
            path = tmp_path / f"{label}_{instance_id}.jsonl"
            write_run_log(records, path, params=plan.algorithm_spec(label).describe())
            digests[(label, instance_id)] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == {
            ("rs-70", "sphere-d1"): "89112aa69bece40d72617a9e3d5264aeff0a25ebbaea471401e2eabe44cd1c77",
            ("rs-70", "sphere-d2"): "a50a13d65926e4e144f0df29047cdc6cca32ce381fe8c25a1bb296084ead7d92",
            ("rs-70", "rastrigin-d3"): "f9473daba667b2e891ff1ba0bc34dd935d62f32ff016cf264b22496316e27ee2",
            ("rs-100", "sphere-d1"): "03933e7ba300f95febd4a38185a25f832e19cb043b3e32fb926946c58ad2fb4a",
            ("rs-100", "sphere-d2"): "cc9b82e4b19e2377ca277390ae2059ba8d44279b75d4d28e4c8694e3f1b987e0",
            ("rs-100", "rastrigin-d3"): "197657f168b174f5b27b042228d6ebc2f5275a3396f0341983d5eec6e2a7bf98",
            ("rs", "sphere-d1"): "faf89b60a778f03c63b1bae110f9a6490d3902cd487349c7b9422aedb5e44204",
            ("rs", "sphere-d2"): "9ac92052a1071b0910e9411283d7c6628b55d515d925347cd7023047b64893da",
            ("rs", "rastrigin-d3"): "5af63825ee0ff76bf0e958ee1f94ff38ca9a0fc2c9c36a4f44c5dcbaf6feebd7",
            ("pso", "sphere-d1"): "71b181391d3a595b8d3790594f20be92faee0351ff02025d3106d78e70750b7a",
            ("pso", "sphere-d2"): "b51f136f9d7c09ca1149db4939d32dbbc261548225de5abb148014f907b9cd82",
            ("pso", "rastrigin-d3"): "fecd75935b9c929355dc809b80eb3f4862fe30ab1042410302031156eafc0458",
        }

    def test_a_budget_below_one_iteration_gives_the_same_empty_run(self):
        config = edge_config()
        config["budget"] = {"wall_time_limit": 0.003}
        block, stepped = _block_and_stepped(config)
        assert _bits(block) == _bits(stepped)
        assert all(
            len(records) == 1
            and records[0].evals_used == 0
            and records[0].elapsed == records[0].evals == records[0].best_f == ()
            for records in block.values()
        )

    def test_a_demo_random_search_run_scores_a_block_per_objective_call(self, monkeypatch):
        calls = _objective_calls(monkeypatch)
        plan = plan_from_config(validate_config(demo_config()))
        for rep in range(plan.repetitions):
            run_time_fair(plan, "random-search", "rastrigin-d10", rep)
        assert len(calls) == 300 and sum(calls) == 19_200

    def test_a_restarted_random_search_makes_one_objective_call_per_evaluation(self, monkeypatch):
        # the stagnation_restart wrapper has no `drawn`: the runner steps it
        calls = _objective_calls(monkeypatch)
        config = demo_config()
        config["algorithms"] = [{
            "label": "rs-restart",
            "kind": "random-search",
            "params": {"max_iterations": 1280},
            "wrappers": {"stagnation_restart": {"plateau_window": 20, "plateau_epsilon": 0.01}},
        }]
        plan = plan_from_config(validate_config(config))
        records = run_plan(plan)[("rs-restart", "rastrigin-d10")]
        assert set(calls) == {1}
        assert len(calls) == sum(r.evals_used for r in records) > RANDOM_SEARCH_BLOCK

    def test_every_column_value_is_a_plain_python_number(self):
        # report._json formats exact floats and ints itself and hands any
        # other type to json.dumps, which raises TypeError on a numpy int:
        # the block path, stepping, both wrappers and the eval cap must all
        # record plain Python numbers
        grouped = run_plan(plan_from_config(validate_config(edge_config())))
        records = [record for records in grouped.values() for record in records]
        assert sum(len(record.elapsed) for record in records) > 1000
        for record in records:
            for name, kind in (("elapsed", float), ("evals", int), ("best_f", float)):
                column = getattr(record, name)
                assert type(column) is tuple and {type(value) for value in column} <= {kind}, name


class TestBestOfRestarts:
    def _with_final(self, final, run_index=0):
        return RunRecord(
            algorithm_id="a",
            instance_id="sphere-d2",
            seed=1,
            elapsed=(1.0,),
            evals=(1,),
            best_f=(final,),
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
            elapsed=(),
            evals=(),
            best_f=(),
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

    @pytest.mark.parametrize("targets", [TargetSpec(kind="relative", values=(10.0, 1.0)), None])
    def test_ladders_are_each_instances_resolved_targets(self, targets):
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("x", "pso"),),
            instances=("sphere-d2", "rosenbrock-d3"),
            budget=Budget(wall_time_limit=1.0),
            targets=targets,
            repetitions=1,
            master_seed=1,
            clock=VIRTUAL,
        )
        assert [p.instance_id for p in plan.problems.values()] == list(plan.instances)
        assert plan.ladders == {
            i: () if targets is None else targets.resolve(get_problem(i).f_opt) for i in plan.instances
        }

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

    def test_a_run_on_the_catalog_kernels_is_the_run_on_their_oracles(self, monkeypatch):
        # restart-sweep's shape (short random-search, PSO and restarting PSO
        # runs on every catalog problem) at a cost per evaluation that is not
        # dyadic: the kernels return the oracle expressions' bits, so every
        # run, its restarts and its stops are the same, field for field
        config = {
            "budget": {"wall_time_limit": 2.0},
            "targets": {"kind": "relative", "values": [1e4, 1e3, 1e2, 10.0, 1.0, 0.1, 0.01]},
            "repetitions": 2,
            "master_seed": 3,
            "clock": {"mode": "virtual", "cost_per_eval": 0.0031},
            "algorithms": [
                {"label": "random-search", "kind": "random-search", "params": {"max_iterations": 4}},
                {"label": "pso", "kind": "pso", "params": {"swarm_size": 10, "max_iterations": 2}},
                {
                    "label": "pso-restart",
                    "kind": "pso",
                    "params": {"swarm_size": 10, "max_iterations": 8},
                    "wrappers": {"stagnation_restart": {"plateau_window": 2, "plateau_epsilon": 1e-3}},
                },
            ],
            "instances": ["sphere-d5", "rastrigin-d10", "rosenbrock-d10", "ackley-d20"],
        }

        def hexed_runs():
            plan = plan_from_config(validate_config(config))
            rows_fns = {instance_id.partition("-d")[0]: p.rows_fn for instance_id, p in plan.problems.items()}
            grouped = run_plan(plan)
            return rows_fns, {pair: [_hexed(dataclasses.astuple(r)) for r in records] for pair, records in grouped.items()}

        kernels, runs = hexed_runs()
        for name, oracle in ORACLES.items():
            rows_fn, *rest = problems._CATALOG[name]
            assert kernels[name] is rows_fn
            monkeypatch.setitem(problems._CATALOG, name, (oracle, *rest))
        oracles, oracle_runs = hexed_runs()
        assert oracles == ORACLES
        assert sum(map(len, runs.values())) > 100
        assert runs == oracle_runs

    @pytest.mark.parametrize("cpus", [1, 3, 96, None])
    def test_a_parallel_run_asks_for_no_more_workers_than_tasks(self, monkeypatch, cpus):
        # a recording pool that maps in-process: no worker is started
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: cpus)
        plan = scenario_plan(repetitions=2)  # 2 arms on 1 instance: 4 tasks
        assert run_plan(plan, parallel=True) == run_plan(plan)
        assert asked == [min(4, cpus or 1)]

    def test_each_arm_is_built_once(self, monkeypatch):
        # the plan's runs and the run headers' echo step and describe the
        # algorithm that the spec built when it was made
        built = []

        def counting(kind, params):
            built.append(kind)
            return make_optimizer(kind, params)

        monkeypatch.setattr(protocol, "make_optimizer", counting)
        plan = scenario_plan(repetitions=3)
        run_plan(plan)
        for spec in plan.algorithms:
            spec.describe()
        assert built == ["pso", "pso"]

    def test_each_problem_is_made_once(self, monkeypatch):
        # the plan resolves its instances; no task resolves one again
        made = []

        def counting(instance_id):
            made.append(instance_id)
            return get_problem(instance_id)

        monkeypatch.setattr(protocol, "get_problem", counting)
        plan = plan_from_config(validate_config(demo_config()))
        run_plan(plan)
        assert made == list(plan.instances)

    def test_only_the_plans_instances_run(self):
        with pytest.raises(KeyError, match="sphere-d2"):
            run_time_fair(scenario_plan(), "pso", "sphere-d2", 0)

    def test_a_slow_spell_is_shared_by_the_arms(self, monkeypatch):
        # a real clock that advances 1 tick per read, and 2 once four tasks
        # are done: two identical arms must see about the same budget
        clock = {"now": 0.0, "tick": 1.0}

        def now(self):
            clock["now"] += clock["tick"]
            return clock["now"]

        done = []

        def progress(message):
            done.append(message)
            if len(done) == 4:
                clock["tick"] = 2.0

        monkeypatch.setattr(RealClock, "now", now)
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("a", "random-search"), AlgorithmSpec("b", "random-search")),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=2000.0),
            targets=None,
            repetitions=4,
            master_seed=1,
            clock=ClockSpec(mode="real"),
        )
        grouped = run_plan(plan, progress=progress)
        used = [sum(r.evals_used for r in grouped[(label, "sphere-d2")]) for label in "ab"]
        assert math.isclose(*used, rel_tol=0.1), used

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
        assert (batched.counts, batched.values) == ([1, 3, 7, 10, 12], [5.0, 3.0, 1.0, 0.5, 0.25])
        assert evaluator_columns(batched) == evaluator_columns(self._row_by_row(instance, batches))
        assert batched.stamps == [
            VirtualClock(0.1, 0.3).at(evals, iteration)
            for evals, iteration in ((1, 1), (3, 1), (7, 2), (10, 3), (12, 3))
        ]

    def test_random_pso_batches_equal_row_by_row(self):
        rng = np.random.default_rng(2)
        instance = _tabled(np.round(rng.uniform(0, 6, size=64)))  # many ties
        batches = [rng.integers(0, 64, size=(int(rng.integers(2, 12)), 1)) for _ in range(40)]
        batched = self._batched(instance, batches)
        one_by_one = self._row_by_row(instance, batches)
        assert evaluator_columns(batched) == evaluator_columns(one_by_one)
        assert batched.count == one_by_one.count == sum(len(b) for b in batches)

    def test_nan_rows_never_improve(self):
        instance = _tabled([4.0, float("nan"), 3.0, 5.0])
        batched = self._batched(instance, [[[1], [0], [1], [3], [2]]])
        assert (batched.counts, batched.values) == ([2, 5], [4.0, 3.0])
        assert evaluator_columns(batched) == evaluator_columns(self._row_by_row(instance, [[[1], [0], [1], [3], [2]]]))

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
        assert (evaluator.count, evaluator.n_clamped, evaluator_columns(evaluator)) == (0, 0, columns([]))
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

    best, n_clamped, expected_values, expected_points = math.inf, 0, [], []
    for count, x in enumerate(points, start=1):
        row = np.array([x], dtype=float)
        clipped = np.clip(row, SIGNED.lower, SIGNED.upper)
        n_clamped += int((clipped != row).any())
        f = float(SIGNED.rows_fn(clipped)[0])
        expected_values.append(f)
        if f < best:
            best = f
            expected_points.append((clock.at(count, 1), count, f))

    assert np.array(values).tobytes() == np.array(expected_values).tobytes()
    assert evaluator.n_clamped == n_clamped
    assert evaluator.count == len(points)
    assert evaluator_columns(evaluator) == columns(expected_points)


# a row that evaluates to NaN, and one on bounds whose value recurs
NAN_ROW = (math.nan, math.nan, math.nan)
CORNER_ROW = (0.0, -0.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.tuples(*(_coordinate(lo, hi) for lo, hi in zip(SIGNED.lower, SIGNED.upper))),
                st.sampled_from([NAN_ROW, CORNER_ROW]),
            ),
            min_size=2,
            max_size=8,
        ),
        min_size=1,
        max_size=5,
    )
)
@example([[NAN_ROW, NAN_ROW], [CORNER_ROW, NAN_ROW, CORNER_ROW], [NAN_ROW, CORNER_ROW]])
@example(
    [
        [(1.0, -1.0, 2.0), (0.5, -0.5, 0.0)],
        [(0.5, -0.5, 0.0), (1.0, -1.0, 2.0), (-0.0, 0.0, -0.0)],
    ]
)
def test_batch_evaluation_matches_a_row_by_row_clip_oracle(batches):
    clock = VirtualClock(0.1, 0.3)
    evaluator = RunEvaluator(SIGNED, clock)
    values = []
    for iteration, batch in enumerate(batches, start=1):
        evaluator.iterations = iteration
        values.extend(evaluator.evaluate_rows(batch).tolist())

    best, count, n_clamped, expected_values, expected_points = math.inf, 0, 0, [], []
    for iteration, batch in enumerate(batches, start=1):
        for x in batch:
            count += 1
            row = np.array(x, dtype=float)
            clipped = np.clip(row, SIGNED.lower, SIGNED.upper)
            n_clamped += int((clipped != row).any())
            f = float(SIGNED.rows_fn(clipped[None])[0])
            expected_values.append(f)
            if f < best:
                best = f
                expected_points.append((clock.at(count, iteration), count, f))

    assert np.array(values).tobytes() == np.array(expected_values).tobytes()
    assert evaluator.n_clamped == n_clamped
    assert evaluator.count == count
    assert evaluator_columns(evaluator) == columns(expected_points)
    assert evaluator.best_f == best


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(*(_coordinate(lo, hi) for lo, hi in zip(SIGNED.lower, SIGNED.upper))),
            st.sampled_from([NAN_ROW, CORNER_ROW]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([math.nan, -math.inf, 0.0, 1.5, 3.0, 6.0, math.inf]),
)
@example([CORNER_ROW, NAN_ROW, CORNER_ROW], 1.5)
def test_a_block_matches_one_row_per_iteration(rows, stop):
    # each row an iteration of its own, the block ending at the first row
    # whose value is at or below `stop`; a batch before it sets a best
    clock = VirtualClock(0.1, 0.3)
    first = [(0.5, -0.5, 1.0), (1.0, -1.0, -2.0)]
    block = RunEvaluator(SIGNED, clock)
    block.iterations = 1
    block.evaluate_rows(first)
    values = block.evaluate_rows(rows, stop)

    stepped = RunEvaluator(SIGNED, clock)
    stepped.iterations = 1
    stepped.evaluate_rows(first)
    expected = []
    for x in rows:
        stepped.iterations += 1
        expected.append(stepped.evaluate_rows([x])[0])
        if expected[-1] <= stop:
            break

    assert values.tobytes() == np.array(expected).tobytes()
    assert (block.count, block.iterations, block.n_clamped) == (
        stepped.count,
        stepped.iterations,
        stepped.n_clamped,
    )
    assert evaluator_columns(block) == evaluator_columns(stepped)
    assert _hexed(block.best_f) == _hexed(stepped.best_f)


@pytest.mark.parametrize("rows", [1, 40])
def test_evaluation_goes_through_the_instance_seam_once(monkeypatch, rows):
    # perfbench traces ProblemInstance.evaluate_rows as the objective layer
    calls = []
    seam = ProblemInstance.evaluate_rows

    def counted(self, xs):
        calls.append(len(xs))
        return seam(self, xs)

    monkeypatch.setattr(ProblemInstance, "evaluate_rows", counted)
    instance = get_problem("sphere-d5")
    evaluator = RunEvaluator(instance, VirtualClock(0.1, 0.0))
    evaluator.evaluate_rows(instance.uniform(np.random.default_rng(3), rows))
    assert calls == [rows]
