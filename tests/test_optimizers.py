import math
import statistics
from dataclasses import dataclass, replace
from types import SimpleNamespace

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
from timefair.seeds import subseed

from conftest import columns, evaluator_columns

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
            assert ev_a.values == ev_b.values

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


def recording(instance):
    """A copy of `instance`, and the list of every row its objective sees."""
    seen = []

    def rows_fn(xs):
        seen.extend(xs.copy())
        return instance.rows_fn(xs)

    return replace(instance, rows_fn=rows_fn), seen


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def swarm_best_x(state):
    """The swarm best's position (row 1 of `attract`), None until a particle has a value."""
    return state.attract[1, 0] if state.best_f < math.inf else None


def pso_oracle_init(params, instance, seed):
    """PSO's initial state in its plain form: separate arrays, nothing shared."""
    rng = np.random.default_rng(seed)
    x = instance.uniform(rng, params.swarm_size)
    return SimpleNamespace(
        rng=rng,
        x=x,
        v=np.zeros_like(x),
        pbest_x=x.copy(),
        pbest_f=np.full(params.swarm_size, math.inf),
        best_x=None,
        best_f=math.inf,
        iterations=0,
    )


def pso_oracle_step(params, state, evaluator):
    """PSO's step in its out-of-place form: new arrays every iteration."""
    instance = evaluator.instance
    if state.iterations > 0:
        r1 = state.rng.random(state.x.shape)
        r2 = state.rng.random(state.x.shape)
        vmax = params.velocity_clamp * (instance.upper - instance.lower)
        v = (
            params.inertia * state.v
            + params.cognitive * r1 * (state.pbest_x - state.x)
            + params.social * r2 * (state.best_x - state.x)
        )
        state.v = np.clip(v, -vmax, vmax)
        state.x = np.clip(state.x + state.v, instance.lower, instance.upper)
    fs = evaluator.evaluate_rows(state.x)
    improved = fs < state.pbest_f
    state.pbest_x[improved] = state.x[improved]
    state.pbest_f[improved] = fs[improved]
    i = int(np.argmin(state.pbest_f))
    if state.pbest_f[i] < state.best_f:
        state.best_f = float(state.pbest_f[i])
        state.best_x = state.pbest_x[i].copy()
    state.iterations += 1


def check_pso_against_the_oracle(instance_id, restarts):
    """60 steps of PSO, plain or inside StagnationRestart, against the oracle."""
    instance = get_problem(instance_id)
    pso = make_optimizer("pso", {"swarm_size": 12})
    algorithm = pso
    if restarts:
        algorithm = StagnationRestart(pso, plateau_window=2, plateau_epsilon=0.5)
    state = algorithm.init(instance, 4)
    swarm_of = (lambda s: s.inner_state) if restarts else (lambda s: s)
    oracle = pso_oracle_init(pso.params, instance, subseed(4, 0) if restarts else 4)
    evaluator, oracle_evaluator = make_evaluator(instance), make_evaluator(instance)
    vmax = pso.params.velocity_clamp * (instance.upper - instance.lower)
    on_bound = on_vmax = restart_count = 0
    for _ in range(60):
        algorithm.step(state, evaluator)
        pso_oracle_step(pso.params, oracle, oracle_evaluator)
        if restarts and state.restart_count != restart_count:
            restart_count = state.restart_count
            oracle = pso_oracle_init(pso.params, instance, subseed(4, restart_count))
        swarm = swarm_of(state)
        for name in ("x", "v", "pbest_x", "pbest_f"):
            assert same_bits(getattr(swarm, name), getattr(oracle, name)), name
        assert same_bits(swarm_best_x(swarm), oracle.best_x)
        assert swarm.best_f == oracle.best_f
        assert not np.shares_memory(swarm.pbest_x, swarm.x)
        assert evaluator.n_clamped == oracle_evaluator.n_clamped
        assert evaluator_columns(evaluator) == evaluator_columns(oracle_evaluator)
        on_bound += np.count_nonzero((swarm.x == instance.lower) | (swarm.x == instance.upper))
        on_vmax += np.count_nonzero(np.abs(swarm.v) == vmax)
    assert on_bound > 0 and on_vmax > 0  # both clips were exercised
    assert restart_count >= (3 if restarts else 0)


class TestReferenceStreams:
    """Block draws and in-place updates replay the per-point formulas bit for bit."""

    @pytest.mark.parametrize("max_iterations, steps", [(None, 150), (70, 70)])
    def test_random_search_points_equal_one_draw_per_point(self, max_iterations, steps):
        instance, seen = recording(get_problem("rastrigin-d3"))
        algorithm = make_optimizer("random-search", {"max_iterations": max_iterations})
        state, done = drive(algorithm, make_evaluator(instance), 11, steps)
        oracle = np.random.default_rng(11)
        assert same_bits(seen, [instance.uniform(oracle) for _ in range(steps)])
        assert done[-1] == (max_iterations is not None)
        if max_iterations is not None:
            # a partial last block: the run drew no point it does not evaluate
            assert state.rng.bit_generator.state == oracle.bit_generator.state

    def test_random_search_points_inside_stagnation_restart(self):
        instance, seen = recording(FLAT)
        wrapped = StagnationRestart(
            make_optimizer("random-search"), plateau_window=5, plateau_epsilon=1e-9
        )
        evaluator = make_evaluator(instance)
        state = wrapped.init(instance, 3)
        oracle = np.random.default_rng(subseed(3, 0))
        expected = []
        for _ in range(150):
            expected.append(instance.uniform(oracle))
            restarts = state.restart_count
            wrapped.step(state, evaluator)
            if state.restart_count != restarts:
                oracle = np.random.default_rng(subseed(3, state.restart_count))
        assert state.restart_count == 29  # restarts abandon partly used blocks
        assert same_bits(seen, expected)

    def test_pso_in_place_step_equals_out_of_place_formula(self):
        # rosenbrock's bounds (-5, 10) are asymmetric; inside StagnationRestart,
        # each restart's init rebuilds the swarm's buffers
        for instance_id in ("rastrigin-d5", "rosenbrock-d10"):
            for restarts in (False, True):
                check_pso_against_the_oracle(instance_id, restarts)

    def test_pso_constants_follow_the_instance(self):
        pso = make_optimizer("pso", {"swarm_size": 6, "velocity_clamp": 0.25})
        p = pso.params
        for instance_id in ("rosenbrock-d10", "sphere-d2", "rosenbrock-d10"):
            instance = get_problem(instance_id)
            span = instance.upper - instance.lower
            expected = (
                p.inertia,
                np.array([p.cognitive, p.social])[:, None, None],
                -0.25 * span,
                0.25 * span,
                instance.lower,
                instance.upper,
            )
            constants = pso._constants(instance)
            assert len(constants) == len(expected)
            for k, (constant, value) in enumerate(zip(constants, expected)):
                assert constant.shape[-2:] == (p.swarm_size, instance.dimension), k
                assert same_bits(constant, np.broadcast_to(value, constant.shape)), k
                assert not constant.flags.writeable, k
            # the cache: every state of this PSO on this instance steps with the one block
            evaluator = make_evaluator(instance)
            for seed in (1, 2):
                drive(pso, evaluator, seed, 2)
                assert all(a is b for a, b in zip(pso._constants(instance), constants))
            # w, (c1, c2), -vmax and vmax share one block; the bounds are the instance's
            assert all(c.base is constants[0].base for c in constants[:4])
            assert all(a is b for a, b in zip(constants[4:], instance.bounds(p.swarm_size)))

    def test_pso_steps_on_while_no_particle_has_a_value(self):
        void = replace(SPHERE, rows_fn=lambda xs: np.full(len(xs), math.nan))
        algorithm = make_optimizer("pso", {"swarm_size": 5})
        evaluator = make_evaluator(void)
        state, _ = drive(algorithm, evaluator, 2, 4)
        assert swarm_best_x(state) is None and math.isinf(state.best_f)
        assert evaluator.count == 20 and evaluator_columns(evaluator) == columns([])


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
                evaluator.evaluate_rows(np.full((1, 2), 2.0 ** -(state.iterations + 1)))
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
        # cuts its second run after one iteration (no empty third run follows)
        def searched(overhead):
            plan = rs_plan({"synthetic_overhead": overhead}, T=60.0, max_iterations=10)
            records = run_time_fair(plan, "rs", "sphere-d2", 0)
            return [(r.evals_used, r.evals, r.best_f) for r in records]

        plain, heavy = searched(0.0), searched(5.0)
        assert len(plain) == 24
        assert heavy == [plain[0], (1, plain[1][1][:1], plain[1][2][:1])]

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
        evaluator.evaluate_rows(np.full((1, evaluator.instance.dimension), 2.0 ** -exponent))
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
