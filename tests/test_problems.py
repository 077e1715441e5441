import numpy as np
import pytest

from timefair.clock import VirtualClock
from timefair.problems import catalog_names, get_problem, optimum_point
from timefair.protocol import RunEvaluator


def test_rastrigin_optimum_is_zero():
    for d in (2, 5, 10):
        assert get_problem(f"rastrigin-d{d}").evaluate(np.zeros(d)) == 0.0


def test_rastrigin_formula_point():
    # 10*2 + (1 - 10 cos 2pi) + (0 - 10 cos 0) = 1, exact in doubles
    assert get_problem("rastrigin-d2").evaluate([1.0, 0.0]) == 1.0


def test_sphere_sum_of_squares():
    assert get_problem("sphere-d3").evaluate([1.0, 1.0, 1.0]) == 3.0


def test_rosenbrock_optimum():
    assert get_problem("rosenbrock-d2").evaluate([1.0, 1.0]) == 0.0


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("d", [2, 5, 10])
def test_known_optima_within_tolerance(name, d):
    instance_id = f"{name}-d{d}"
    instance = get_problem(instance_id)
    assert abs(instance.evaluate(optimum_point(instance_id)) - instance.f_opt) <= 1e-12


def test_evaluation_is_deterministic(rng):
    instance = get_problem("ackley-d5")
    for _ in range(20):
        x = instance.uniform(rng)
        assert instance.evaluate(x) == instance.evaluate(x)


def test_batch_matches_scalar_path(rng):
    instance = get_problem("rosenbrock-d4")
    xs = instance.uniform(rng, 10)
    fs = instance.evaluate_rows(xs)
    for row, f in zip(xs, fs):
        assert instance.evaluate(row) == f


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        get_problem("sphere-d3").evaluate([1.0, 2.0])


@pytest.mark.parametrize("bad", ["sphere", "sphere-d0x", "nosuch-d3", "rosenbrock-d1"])
def test_bad_instance_ids_rejected(bad):
    with pytest.raises(KeyError):
        get_problem(bad)


def test_default_bounds_follow_catalog():
    assert get_problem("rastrigin-d2").upper[0] == 5.12
    assert get_problem("sphere-d2").lower[0] == -5.12
    assert tuple(get_problem("rosenbrock-d2").upper) == (10.0, 10.0)
    assert get_problem("ackley-d2").upper[0] == 32.768


def test_clamp_flags_out_of_bounds_queries():
    instance = get_problem("sphere-d2")
    evaluator = RunEvaluator(instance, VirtualClock(1.0, 0.0))
    assert evaluator.evaluate([1.0, -1.0]) == 2.0
    assert evaluator.n_clamped == 0
    assert evaluator.evaluate([7.0, -9.0]) == 2 * 5.12**2
    assert evaluator.n_clamped == 1
    # one count per clamped row, however many of its coordinates moved
    fs = evaluator.evaluate_rows(np.array([[0.0, 6.0], [1.0, 1.0], [-6.0, -6.0]]))
    assert list(fs) == [5.12**2, 2.0, 2 * 5.12**2]
    assert evaluator.n_clamped == 3


def test_uniform_samples_stay_in_bounds(rng):
    instance = get_problem("ackley-d3")
    xs = instance.uniform(rng, 100)
    assert np.all(xs >= instance.lower) and np.all(xs <= instance.upper)
