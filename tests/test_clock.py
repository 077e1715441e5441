import numpy as np
import pytest

from timefair.clock import ClockSpec, RealClock, VirtualClock
from timefair.optimizers import make_optimizer
from timefair.problems import get_problem
from timefair.protocol import RunEvaluator


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock(0.125, 0.5).at(0, 0) == 0.0

    def test_charge_advances_by_exact_amount(self):
        clock = VirtualClock(cost_per_eval=2.5, step_overhead=0.75)
        assert clock.at(1, 0) == 2.5
        assert clock.at(0, 1) == 0.75
        assert clock.at(3, 2) == 3 * 2.5 + 2 * 0.75

    def test_zero_charge_is_a_no_op(self):
        clock = VirtualClock(cost_per_eval=1.0, step_overhead=0.0)
        assert clock.at(7, 0) == clock.at(7, 5) == 7.0

    def test_five_restarts_of_ten_seconds_fill_fifty(self):
        # the demo's PSO run: 32 iterations of 40 evaluations at 1/128 s
        run = VirtualClock(cost_per_eval=0.0078125, step_overhead=0.0).at(32 * 40, 32)
        assert run == 10.0
        total = 0.0
        for _ in range(5):
            total += run
        assert total == 50.0

    def test_dyadic_costs_sum_exactly(self):
        # dyadic costs: the closed form equals the per-event float sum bit for bit
        rng = np.random.default_rng(5)
        for _ in range(200):
            cost = float(rng.integers(1, 64)) / 2.0 ** int(rng.integers(0, 10))
            overhead = float(rng.integers(0, 64)) / 2.0 ** int(rng.integers(0, 10))
            evals_per_step = int(rng.integers(1, 50))
            iterations = int(rng.integers(0, 100))
            summed = 0.0
            for _ in range(iterations):
                summed += overhead
                for _ in range(evals_per_step):
                    summed += cost
            clock = VirtualClock(cost, overhead)
            assert clock.at(evals_per_step * iterations, iterations) == summed

    def test_identical_sequences_give_identical_timestamps(self):
        a, b = VirtualClock(0.1, 1e-9), VirtualClock(0.1, 1e-9)
        for evals, iterations in [(0, 1), (3, 1), (40, 2), (12345, 678)]:
            assert a.at(evals, iterations) == b.at(evals, iterations)

    def test_projection_equals_the_stamp(self):
        # non-dyadic costs: the runner's projection of an iteration and the
        # time after it are the same expression, hence the same float
        instance = get_problem("sphere-d3")
        for kind in ("random-search", "pso"):
            algorithm = make_optimizer(kind, {"swarm_size": 7} if kind == "pso" else {})
            clock = VirtualClock(cost_per_eval=0.1, step_overhead=0.3)
            evaluator = RunEvaluator(instance, clock)
            state = algorithm.init(instance, 3)
            for _ in range(25):
                projected = clock.at(
                    evaluator.count + algorithm.evals_per_step, evaluator.iterations + 1
                )
                evaluator.iterations += 1
                algorithm.step(state, evaluator)
                assert evaluator.elapsed() == projected
            assert evaluator.stamps[-1] <= evaluator.elapsed()


class TestRealClock:
    def test_monotone_across_calls(self):
        clock = RealClock()
        t1 = clock.now()
        t2 = clock.now()
        assert t2 >= t1

    def test_at_measures_from_creation_and_ignores_counts(self, monkeypatch):
        ticks = iter([10.0, 12.5, 13.0])
        monkeypatch.setattr(RealClock, "now", lambda self: next(ticks))
        clock = RealClock()
        assert clock.at(0, 0) == 2.5
        assert clock.at(999, 7) == 3.0


class TestClockSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ClockSpec(mode="simulated")

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            ClockSpec(mode="virtual", cost_per_eval=-0.1)
