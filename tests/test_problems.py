import dataclasses

import numpy as np
import pytest

from timefair import problems
from timefair.cli import demo_config, plan_from_config, validate_config
from timefair.clock import VirtualClock
from timefair.problems import ProblemInstance, get_problem
from timefair.protocol import RunEvaluator, run_plan

from conftest import CATALOG_OPTIMA, edge_config, optimum_point


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


def test_every_catalog_problem_has_a_known_optimum():
    assert list(CATALOG_OPTIMA) == list(problems._CATALOG)


@pytest.mark.parametrize("name", CATALOG_OPTIMA)
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


# a dimension is ASCII digits without a leading zero, so no problem has two ids
@pytest.mark.parametrize(
    "bad",
    ["sphere", "sphere-d0x", "nosuch-d3", "rosenbrock-d1"]
    + ["rastrigin-d010", "sphere-d\u00b2", "sphere-d\u0665"],
)
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
    assert list(evaluator.evaluate_rows([[1.0, -1.0]])) == [2.0]
    assert evaluator.n_clamped == 0
    assert list(evaluator.evaluate_rows([[7.0, -9.0]])) == [2 * 5.12**2]
    assert evaluator.n_clamped == 1
    # one count per clamped row, however many of its coordinates moved
    fs = evaluator.evaluate_rows(np.array([[0.0, 6.0], [1.0, 1.0], [-6.0, -6.0]]))
    assert list(fs) == [5.12**2, 2.0, 2 * 5.12**2]
    assert evaluator.n_clamped == 3


def test_uniform_samples_stay_in_bounds(rng):
    instance = get_problem("ackley-d3")
    xs = instance.uniform(rng, 100)
    assert np.all(xs >= instance.lower) and np.all(xs <= instance.upper)


def test_uniform_is_generator_uniform_bit_for_bit():
    # every catalog problem at two dimensions, one point, one row and a
    # block of rows, drawn in turn from one stream per seed
    instances = [get_problem(f"{name}-d{d}") for name in CATALOG_OPTIMA for d in (2, 10)]
    for seed in range(1000):
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for instance in instances:
            for n in (None, 1, 64):
                size = (instance.dimension,) if n is None else (n, instance.dimension)
                expected = expected_rng.uniform(instance.lower, instance.upper, size=size)
                assert instance.uniform(rng, n).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "lower, upper",
    [
        (-np.inf, 1.0),
        (0.0, np.inf),
        (np.nan, 1.0),
        (0.0, np.nan),
        (np.inf, np.inf),
        (-1e308, 1e308),  # finite, but upper - lower overflows
    ],
)
def test_non_finite_bounds_rejected_naming_the_instance(lower, upper):
    with pytest.raises(ValueError, match="odd-d2: bounds and upper - lower must be finite"):
        ProblemInstance(
            instance_id="odd-d2",
            dimension=2,
            lower=np.array([-1.0, lower]),
            upper=np.array([1.0, upper]),
            f_opt=None,
            rows_fn=lambda xs: xs.sum(axis=1),
        )


def test_batch_bounds_are_read_only_broadcasts_of_the_box():
    # rosenbrock's box (-5, 10) is asymmetric, so lower and upper cannot swap unseen
    instance = get_problem("rosenbrock-d3")
    for n in (1, 2, 40):
        pair = instance.bounds(n)
        for got, bound in zip(pair, (instance.lower, instance.upper)):
            assert got.shape == (n, 3) and got.dtype == bound.dtype
            assert got.tobytes() == np.broadcast_to(bound, (n, 3)).tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 0.0


def test_batch_bounds_are_built_once_per_instance_and_batch_size():
    instance = get_problem("sphere-d5")
    pair = instance.bounds(4)
    assert all(a is b for a, b in zip(instance.bounds(4), pair))
    assert not any(a is b for a, b in zip(instance.bounds(5), pair))
    # a replaced instance is a new box: it builds its own
    copy = dataclasses.replace(instance)
    assert copy._bounds == {}
    assert not any(a is b for a, b in zip(copy.bounds(4), pair))
    assert sorted(instance._bounds) == [4, 5] and sorted(copy._bounds) == [4]


def test_bounds_for_every_batch_size_are_views_of_one_block():
    # bounds(n) for n up to the largest size asked so far are the first n
    # rows of that size's block: a block is built for a new largest size
    # only, not for each size of batch or partial block that a run clips
    instance = get_problem("rosenbrock-d3")
    largest = instance.bounds(64)
    for n in range(64, 0, -1):
        for got, of, bound in zip(instance.bounds(n), largest, (instance.lower, instance.upper)):
            assert np.shares_memory(got, of) and not got.flags.writeable
            assert got.tobytes() == np.broadcast_to(bound, (n, 3)).tobytes()
    for config in (demo_config(), edge_config()):
        plan = plan_from_config(validate_config(config))
        run_plan(plan)
        for instance in plan.problems.values():
            assert instance._bounds
            for n, pair in instance._bounds.items():
                for got, bound in zip(pair, (instance.lower, instance.upper)):
                    assert got.base is not None and not got.base.flags.writeable
                    assert got.tobytes() == np.broadcast_to(bound, (n, instance.dimension)).tobytes()


@pytest.mark.parametrize("name", sorted(problems._CATALOG))
def test_a_row_scores_the_same_bits_alone_and_in_a_batch(name):
    # a virtual random-search run scores a block of rows in one call where
    # stepping scores them one by one: the logs match only if these agree
    rng = np.random.default_rng(5)
    min_dimension = problems._CATALOG[name][2]
    for dimension in (1, 2, 3, 5, 10, 20, 33):
        if dimension < min_dimension:
            continue
        instance = get_problem(f"{name}-d{dimension}")
        for n in range(2, 65):
            xs = instance.uniform(rng, n)
            batch = [float(f).hex() for f in instance.evaluate_rows(xs)]
            alone = [float(instance.evaluate_rows(xs[i : i + 1])[0]).hex() for i in range(n)]
            assert batch == alone, (dimension, n)


# The catalog objectives as plain numpy expressions: the kernels in
# `problems` apply these operations in this order, so they must return the
# same bits, and every log, curve and table with them.
def _oracle_sphere(xs):
    return np.sum(xs**2, axis=1)


def _oracle_rastrigin(xs):
    d = xs.shape[1]
    return 10.0 * d + np.sum(xs**2 - 10.0 * np.cos(2.0 * np.pi * xs), axis=1)


def _oracle_rosenbrock(xs):
    a = xs[:, :-1]
    b = xs[:, 1:]
    return np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2, axis=1)


def _oracle_ackley(xs):
    d = xs.shape[1]
    s1 = np.sum(xs**2, axis=1)
    s2 = np.sum(np.cos(2.0 * np.pi * xs), axis=1)
    return -20.0 * np.exp(-0.2 * np.sqrt(s1 / d)) - np.exp(s2 / d) + 20.0 + np.e


ORACLES = {
    "sphere": _oracle_sphere,
    "rastrigin": _oracle_rastrigin,
    "rosenbrock": _oracle_rosenbrock,
    "ackley": _oracle_ackley,
}
# both zeros and the non-finite coordinates, which a caller can pass
SPECIAL_COORDINATES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def oracle_batch(rng, instance, n):
    """n rows: in-box draws, magnitudes 1e-300 to 1e150 of either sign,
    and the special coordinates, mixed within rows."""
    d = instance.dimension
    magnitudes = np.copysign(10.0 ** rng.uniform(-300.0, 150.0, (n, d)), rng.uniform(-1.0, 1.0, (n, d)))
    xs = np.where(rng.random((n, d)) < 0.5, instance.uniform(rng, n), magnitudes)
    special = rng.random((n, d)) < 0.1
    xs[special] = rng.choice(SPECIAL_COORDINATES, int(special.sum()))
    return xs


def same_bits(got, expected):
    return got.shape == expected.shape and np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_every_catalog_objective_has_an_oracle():
    assert list(ORACLES) == list(problems._CATALOG)


@pytest.mark.parametrize("name", list(ORACLES))
def test_each_objective_returns_its_oracles_bits(name):
    rng = np.random.default_rng(11)
    oracle = ORACLES[name]
    with np.errstate(all="ignore"):  # inf - inf, cos(inf) and overflow are part of the check
        for d in range(problems._CATALOG[name][2], 21):
            instance = get_problem(f"{name}-d{d}")
            for n in (0, 1, 4, 10, 40, 64, 1000):
                xs = oracle_batch(rng, instance, n)
                # a Fortran-ordered batch too: the kernels' scratch arrays
                # take xs's layout as the expression's temporaries do
                for batch in (xs, np.asfortranarray(xs)):
                    assert same_bits(instance.evaluate_rows(batch), oracle(batch)), (d, n)
                for row in xs[:64]:
                    got = np.array([instance.evaluate(row)])
                    assert same_bits(got, oracle(row[None, :])), (d, row)


@pytest.mark.parametrize("name", list(ORACLES))
def test_an_objective_leaves_a_read_only_input_and_its_first_result_alone(name):
    instance = get_problem(f"{name}-d5")
    xs = instance.uniform(np.random.default_rng(3), 40)
    kept = xs.copy()
    xs.setflags(write=False)
    first = instance.evaluate_rows(xs)
    expected = first.copy()
    second = instance.evaluate_rows(xs)
    assert same_bits(xs, kept)
    assert same_bits(first, expected) and same_bits(second, expected)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, xs)
