import math
import statistics
from dataclasses import dataclass

import numpy as np
import pytest

from timefair import protocol
from timefair.clock import ClockSpec, VirtualClock
from timefair.core import Budget, TargetSpec, Termination
from timefair.optimizers import (
    Algorithm,
    PsoParams,
    RandomSearchState,
    StagnationRestart,
    make_optimizer,
)
from timefair.problems import ProblemInstance, get_problem
from timefair.protocol import AlgorithmSpec, ExperimentPlan, PlanError, RunEvaluator, run_time_fair

SPHERE = get_problem("sphere-d2")


def make_evaluator(instance=SPHERE, cost_per_eval=0.001):
    return RunEvaluator(instance, VirtualClock(cost_per_eval, 0.0))


def drive(algorithm, evaluator, seed, steps):
    state = algorithm.init(evaluator.instance, seed)
    done = [algorithm.step(state, evaluator) for _ in range(steps)]
    return state, done


def eval_deltas(algorithm, evaluator, seed, steps):
    """Evaluations each step made, read off the evaluator's counter."""
    state = algorithm.init(evaluator.instance, seed)
    deltas = []
    for _ in range(steps):
        before = evaluator.count
        algorithm.step(state, evaluator)
        deltas.append(evaluator.count - before)
    return deltas


class TestInit:
    def test_random_search_starts_with_empty_best(self):
        state = make_optimizer("random-search").init(SPHERE, 42)
        assert state.iterations == 0
        assert not hasattr(state, "best_f")  # the run's best lives on the evaluator
        assert math.isinf(make_evaluator().best_f)

    def test_pso_swarm_is_in_bounds(self):
        instance = get_problem("rastrigin-d10")
        state = make_optimizer("pso").init(instance, 7)
        assert state.x.shape == (40, 10)
        assert np.all(state.x >= instance.lower) and np.all(state.x <= instance.upper)
        assert math.isinf(state.best_f)  # zero FEs consumed at init

    def test_degenerate_swarm_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("pso", {"swarm_size": 1})
        with pytest.raises(ValueError, match="integer"):
            make_optimizer("pso", {"swarm_size": 40.5})

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            make_optimizer("simulated-annealing")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("pso", {"swarm": 40})

    def test_pso_param_invariants(self):
        with pytest.raises(ValueError):
            PsoParams(inertia=1.0)
        with pytest.raises(ValueError):
            PsoParams(cognitive=0.0)


class TestStep:
    def test_random_search_costs_one_eval(self):
        ev = make_evaluator()
        assert eval_deltas(make_optimizer("random-search"), ev, 1, 5) == [1] * 5
        assert ev.count == 5

    def test_pso_costs_one_eval_per_particle(self):
        ev = make_evaluator()
        assert eval_deltas(make_optimizer("pso"), ev, 1, 3) == [40] * 3
        assert ev.count == 120

    def test_same_seed_gives_identical_step_sequences(self):
        for kind in ("random-search", "pso"):
            ev_a, ev_b = make_evaluator(), make_evaluator()
            state_a, _ = drive(make_optimizer(kind), ev_a, 99, 10)
            state_b, _ = drive(make_optimizer(kind), ev_b, 99, 10)
            assert ev_a.best_f == ev_b.best_f
            assert [p.best_f for p in ev_a.trajectory] == [p.best_f for p in ev_b.trajectory]

    def test_best_is_monotone_nonincreasing(self):
        for kind in ("random-search", "pso"):
            algorithm = make_optimizer(kind)
            ev = make_evaluator(get_problem("rastrigin-d5"))
            state = algorithm.init(ev.instance, 3)
            last = math.inf
            for _ in range(30):
                algorithm.step(state, ev)
                assert ev.best_f <= last
                last = ev.best_f

    def test_max_iterations_raises_stop_flag(self):
        for kind in ("random-search", "pso"):
            _, done = drive(make_optimizer(kind, {"max_iterations": 4}), make_evaluator(), 1, 4)
            assert done == [False, False, False, True]

    def test_fe_accounting_matches_counter(self):
        # the runner's budget projection relies on the declared per-step count
        algorithm = make_optimizer("pso", {"swarm_size": 6})
        assert eval_deltas(algorithm, make_evaluator(), 5, 7) == [algorithm.evals_per_step] * 7


FLAT = ProblemInstance(
    instance_id="flat-d1",
    dimension=1,
    lower=np.array([-1.0]),
    upper=np.array([1.0]),
    f_opt=None,
    rows_fn=lambda xs: np.full(len(xs), 7.0),
)


def _bimodal_rows(xs):
    wide = 0.5 + 0.05 * np.sum((xs - (-2.5)) ** 2, axis=1)
    deep = 0.5 * np.sum((xs - 3.5) ** 2, axis=1)
    return np.minimum(wide, deep)


BIMODAL = ProblemInstance(
    instance_id="bimodal-d2",
    dimension=2,
    lower=np.full(2, -5.0),
    upper=np.full(2, 5.0),
    f_opt=0.0,
    rows_fn=_bimodal_rows,
)


class TestStagnationRestart:
    def test_no_restart_while_improving(self):
        # shrinking deterministic proposals improve every step on sphere
        class Shrink:
            evals_per_step = 1

            def init(self, instance, seed):
                return RandomSearchState(rng=np.random.default_rng(seed))

            def step(self, state, evaluator):
                evaluator.evaluate(np.full(2, 2.0 ** -(state.iterations + 1)))
                state.iterations += 1
                return False

        wrapped = StagnationRestart(Shrink(), plateau_window=2, plateau_epsilon=1e-12)
        ev = make_evaluator()
        state = wrapped.init(SPHERE, 1)
        for _ in range(12):
            wrapped.step(state, ev)
        assert state.restart_count == 0

    def test_restart_triggers_exactly_after_window_plateau_steps(self):
        wrapped = StagnationRestart(
            make_optimizer("random-search"), plateau_window=3, plateau_epsilon=1e-9
        )
        ev = make_evaluator(FLAT)
        state = wrapped.init(FLAT, 5)
        restart_at = []
        for step in range(1, 9):
            wrapped.step(state, ev)
            restart_at.append(state.restart_count)
        # step 1 improves (inf -> 7), steps 2..4 plateau, restart on step 4
        assert restart_at == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_global_best_survives_restarts(self):
        wrapped = StagnationRestart(
            make_optimizer("pso", {"swarm_size": 4}), plateau_window=2, plateau_epsilon=10.0
        )
        ev = make_evaluator()
        state = wrapped.init(SPHERE, 8)
        bests = []
        for _ in range(20):
            wrapped.step(state, ev)
            bests.append(ev.best_f)
        assert state.restart_count > 0
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_retry_budget_exhaustion_stops(self):
        wrapped = StagnationRestart(
            make_optimizer("random-search"), plateau_window=1, plateau_epsilon=1e-9, max_restarts=2
        )
        ev = make_evaluator(FLAT)
        state = wrapped.init(FLAT, 5)
        stopped = False
        for _ in range(30):
            if wrapped.step(state, ev):
                stopped = True
                break
        assert stopped and state.restart_count == 2

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            StagnationRestart(make_optimizer("random-search"), 2, 0.1, max_restarts=-1)

    def test_restarts_help_on_bimodal_fixture(self):
        # Monte-Carlo comparison, 50 seeds: the wrapped variant's median
        # best-of-run must not exceed the plain variant's median.
        def final(algorithm, seed):
            ev = make_evaluator(BIMODAL)
            state = algorithm.init(BIMODAL, seed)
            for _ in range(100):
                algorithm.step(state, ev)
            return ev.best_f

        plain_finals = [final(make_optimizer("pso", {"swarm_size": 8}), s) for s in range(50)]
        wrapped_finals = [
            final(
                StagnationRestart(
                    make_optimizer("pso", {"swarm_size": 8}), plateau_window=5, plateau_epsilon=1e-2
                ),
                s,
            )
            for s in range(50)
        ]
        assert statistics.median(wrapped_finals) <= statistics.median(plain_finals)


def rs_plan(wrappers, T=45.0, max_iterations=4, clock=None):
    """A one-arm random-search plan labelled "rs" on sphere-d2."""
    return ExperimentPlan(
        algorithms=(
            AlgorithmSpec("rs", "random-search", {"max_iterations": max_iterations}, wrappers),
        ),
        instances=("sphere-d2",),
        budget=Budget(wall_time_limit=T),
        targets=None,
        repetitions=1,
        master_seed=2,
        clock=clock or ClockSpec(mode="virtual", cost_per_eval=0.25),
    )


class TestSyntheticOverhead:
    def test_zero_overhead_is_identity(self):
        plain = run_time_fair(rs_plan({}), "rs", "sphere-d2", 0)
        zero = run_time_fair(rs_plan({"synthetic_overhead": 0.0}), "rs", "sphere-d2", 0)
        assert plain == zero

    def test_overhead_charges_clock_per_iteration(self):
        def time_used(overhead):
            plan = rs_plan({"synthetic_overhead": overhead})
            return [r.time_used for r in run_time_fair(plan, "rs", "sphere-d2", 0)]

        # four iterations of (overhead + one 0.25 s evaluation) per run
        assert time_used(1.0) == [4 * (1.0 + 0.25)] * 9
        assert time_used(2.0) == [4 * (2.0 + 0.25)] * 5

    def test_search_behavior_is_unchanged(self):
        # the overhead costs time, never a different search: the heavy arm's
        # runs evaluate what the plain arm's first runs evaluate, until T
        # cuts its second run after one iteration (then no iteration fits)
        def searched(overhead):
            plan = rs_plan({"synthetic_overhead": overhead}, T=60.0, max_iterations=10)
            records = run_time_fair(plan, "rs", "sphere-d2", 0)
            return [(r.evals_used, [(p.evals, p.best_f) for p in r.trajectory]) for r in records]

        plain, heavy = searched(0.0), searched(5.0)
        assert len(plain) == 24
        assert heavy == [plain[0], (1, plain[1][1][:1]), (0, [])]

    def test_real_clock_rejected(self):
        # the wrapper's presence is the error, even at zero overhead
        for overhead in (0.5, 0.0):
            with pytest.raises(PlanError, match="virtual clock"):
                rs_plan({"synthetic_overhead": overhead}, T=1.0, clock=ClockSpec(mode="real"))

    def test_negative_overhead_rejected(self):
        for overhead in (-0.1, math.nan, math.inf):
            with pytest.raises(PlanError, match="synthetic_overhead must be finite and >= 0"):
                rs_plan({"synthetic_overhead": overhead})


def test_describe_echoes_effective_parameters():
    desc = make_optimizer("pso", {"swarm_size": 12, "max_iterations": 9}).describe()
    assert desc["swarm_size"] == 12
    assert desc["inertia"] == 0.7298
    assert desc["max_iterations"] == 9
    # the run header's echo: the wrappers' settings follow the optimizer's
    spec = AlgorithmSpec(
        "pso",
        "pso",
        wrappers={
            "synthetic_overhead": 1.25,
            "stagnation_restart": {"plateau_window": 4, "plateau_epsilon": 0.5},
        },
    )
    desc = spec.describe()
    assert desc["stagnation_restart"]["plateau_window"] == 4
    assert list(desc)[-2:] == ["stagnation_restart", "synthetic_overhead_per_iteration"]
    assert desc["synthetic_overhead_per_iteration"] == 1.25
    assert "synthetic_overhead_per_iteration" not in AlgorithmSpec("pso", "pso").describe()


@dataclass
class HalvingState:
    iterations: int = 0


class Halving(Algorithm):
    """A user-defined algorithm whose state keeps no best: its proposals
    halve towards the sphere's optimum for `improving` steps, then repeat."""

    def __init__(self, improving: int):
        self.improving = improving

    def describe(self) -> dict:
        return {"kind": "halving", "improving": self.improving}

    def init(self, instance, seed):
        return HalvingState()

    def step(self, state, evaluator) -> bool:
        exponent = min(state.iterations, self.improving)
        evaluator.evaluate(np.full(evaluator.instance.dimension, 2.0 ** -exponent))
        state.iterations += 1
        return False


class TestUserAlgorithmContract:
    def test_target_reached_through_the_runner(self, monkeypatch):
        monkeypatch.setattr(protocol, "make_optimizer", lambda kind, params: Halving(20))
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("halving", "halving"),),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=3.5),
            targets=TargetSpec(kind="absolute", values=(0.1, 1e-3)),
            repetitions=1,
            master_seed=1,
            clock=ClockSpec(mode="virtual", cost_per_eval=0.25),
        )
        records = run_time_fair(plan, "halving", "sphere-d2", 0)
        # f = 2 * 4**-k first reaches 1e-3 at k = 6, the seventh evaluation
        # (1.75 s), so T = 3.5 s holds two runs that reach it
        assert [r.termination for r in records] == [Termination.TARGET_REACHED] * 2
        assert [(r.evals_used, r.final_best) for r in records] == [(7, 2 * 4.0**-6)] * 2

    def test_stagnation_restart_on_plateau(self):
        wrapped = StagnationRestart(Halving(3), plateau_window=2, plateau_epsilon=1e-12)
        ev = make_evaluator()
        state = wrapped.init(SPHERE, 1)
        restarts = []
        for _ in range(8):
            wrapped.step(state, ev)
            restarts.append(state.restart_count)
        # steps 1-4 improve, 5-6 repeat step 4's value; the restarted inner
        # algorithm starts over above the run's best, so 7-8 plateau again
        assert restarts == [0, 0, 0, 0, 0, 1, 1, 2]
        assert state.inner_state.iterations == 0
        assert ev.best_f == 2 * 4.0**-3
