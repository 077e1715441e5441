import itertools
import json
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from timefair import metrics
from timefair.core import CostMatrix, RunRecord, Termination
from timefair.metrics import (
    _best_so_far_matrix,
    _column_medians,
    _midranks,
    analyze,
    anytime_ecdf,
    RunColumns,
    default_time_grid,
    ert,
    first_hits,
    median_trajectory,
    performance_profile,
    rank_sum_test,
)

from conftest import columns, hits_by_pair, pair_times, random_record, time_to_target


def make_record(points, instance_id="sphere-d2", time_used=None):
    return RunRecord(
        algorithm_id="alg",
        instance_id=instance_id,
        seed=0,
        **columns(points),
        time_used=time_used if time_used is not None else (points[-1][0] if points else 0.0),
        evals_used=points[-1][1] if points else 0,
        termination=Termination.INTERNAL_STOP,
    )


TWO_STEP = make_record([(1.0, 10, 7.0), (3.0, 30, 4.5)])


class TestTimeToTarget:
    def test_first_crossing(self):
        assert time_to_target(TWO_STEP, 5.0) == 3.0

    def test_first_point_qualifies(self):
        assert time_to_target(TWO_STEP, 7.0) == 1.0

    def test_never_attained(self):
        assert time_to_target(TWO_STEP, 1.0) == math.inf

    def test_hits_never_exceed_time_used(self, rng):
        for _ in range(200):
            record = random_record(rng)
            for q in (-10.0, 0.0, 25.0, 80.0):
                t = time_to_target(record, q)
                assert t == math.inf or t <= record.time_used


class TestFirstHits:
    LADDER = (60.0, 25.0, 4.5, 0.0, -10.0)

    def test_each_run_and_target_is_time_to_target(self, rng):
        # a hit past T keeps its time and an empty run misses (+inf); at T = 5
        # the ERT and the ECDF count a hit exactly at T and fail the hit past T
        records = [
            TWO_STEP,
            make_record([(1.0, 1, 9.0), (5.0, 2, 4.5)]),  # 4.5 reached exactly at T = 5
            make_record([(2.0, 1, 30.0), (6.0, 2, -20.0)]),  # -20 reached past T
            make_record([]),
            *(random_record(rng) for _ in range(300)),
        ]
        hits = first_hits(RunColumns.of(records), self.LADDER)
        assert hits.dtype == np.float64 and hits.shape == (len(self.LADDER), len(records))
        assert hits.tolist() == [[time_to_target(r, q) for r in records] for q in self.LADDER]
        assert hits[2, :4].tolist() == [3.0, 5.0, 6.0, math.inf]
        result = ert(hits[2, :4], 5.0)
        assert (result.successes, result.runs, result.ert) == (2, 4, (3.0 + 5.0 + 5.0 + 5.0) / 2)
        assert anytime_ecdf(hits[2, :4], [3.0, 5.0]).numerators == (1, 2)

    def test_no_runs_and_no_targets(self):
        assert first_hits(RunColumns.of([]), self.LADDER).shape == (len(self.LADDER), 0)
        assert first_hits(RunColumns.of([TWO_STEP]), ()).shape == (0, 1)


def ert_oracle(times, T):
    """Independent re-derivation with exact rational arithmetic: a run
    succeeds at a time within T and otherwise costs T."""
    total = Fraction(0)
    successes = 0
    for t in times:
        if t > T:
            total += Fraction(T)
        else:
            total += Fraction(t)
            successes += 1
    if successes == 0:
        return math.inf, 0
    return float(total / successes), successes


class TestErt:
    def test_uniform_successes(self):
        result = ert([2.0] * 5, T=10.0)
        assert result.ert == 2.0 and result.success_rate == 1.0

    def test_mixed_hand_computation(self):
        result = ert([3.0, 7.0, math.inf, math.inf], T=10.0)
        assert result.ert == 15.0
        assert result.success_rate == 0.5
        assert result.successes == 2 and result.runs == 4

    def test_nineteen_hits_one_failure(self):
        result = ert([18.0] * 19 + [math.inf], T=50.0)
        assert abs(result.ert - 392.0 / 19.0) <= 1e-9 * (392.0 / 19.0)
        assert result.success_rate == 0.95

    def test_no_successes_is_infinite(self):
        result = ert([math.inf, math.inf, math.inf], T=5.0)
        assert math.isinf(result.ert) and result.success_rate == 0.0

    def test_matches_oracle_on_random_fixtures(self, rng):
        for _ in range(1000):
            T = float(rng.uniform(0.5, 100.0))
            n = int(rng.integers(1, 51))
            times = [
                math.inf if rng.random() < 0.3 else float(rng.uniform(0.0, T))
                for _ in range(n)
            ]
            expected, successes = ert_oracle(times, T)
            result = ert(times, T)
            assert result.successes == successes
            if math.isinf(expected):
                assert math.isinf(result.ert)
            else:
                assert math.isclose(result.ert, expected, rel_tol=1e-12)

    def test_adding_a_failure_never_decreases_ert(self, rng):
        for _ in range(200):
            T = 10.0
            n = int(rng.integers(1, 20))
            times = [math.inf if rng.random() < 0.4 else float(rng.uniform(0, T)) for _ in range(n)]
            base = ert(times, T)
            worse = ert(times + [math.inf], T)
            assert worse.ert >= base.ert

    @pytest.mark.parametrize(
        "times, T",
        [
            ([10.0], 10.0),  # one run, at T
            ([math.inf], 10.0),  # one run, a miss
            ([12.5], 10.0),  # one run, past T
            ([10.0, 10.0 + 2**-49, 9.999999999999998, math.inf, 0.0], 10.0),  # at, just past and just below T
            ([0.1] * 10 + [0.7, 1e-17, math.inf, 0.3], 1.0),  # 0.1 ten times sums to 0.9999999999999999
            ([1e16, 1.0, 1.0, 1.0, 3e16, math.inf], 2e16),  # each 1.0 is lost to rounding, and T ends the sum
            ([2.0**-1074, 1.0, -0.0], 0.5),  # a subnormal, a signed zero
        ],
    )
    def test_sum_is_the_left_to_right_sum_of_min_t_T(self, times, T):
        # the bits of Python's sum in run order, which a pairwise or
        # reordered sum would change for the rounding cases
        total = sum(min(t, T) for t in times)
        successes = sum(1 for t in times if t <= T)
        result = ert(times, T)
        assert (result.successes, result.runs) == (successes, len(times))
        expected = total / successes if successes else math.inf
        assert result.ert.hex() == expected.hex()

    def test_sum_rounds_as_the_left_to_right_sum_on_random_fixtures(self, rng):
        for _ in range(300):
            T = float(rng.uniform(0.5, 100.0))
            n = int(rng.integers(1, 200))
            times = rng.uniform(0.0, 1.5 * T, size=n)
            times[rng.random(n) < 0.2] = math.inf
            times[rng.random(n) < 0.1] = T
            times = times.tolist()
            successes = sum(1 for t in times if t <= T)
            total = sum(min(t, T) for t in times)
            result = ert(times, T)
            assert result.successes == successes
            assert result.ert.hex() == (total / successes if successes else math.inf).hex()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ert([], T=1.0)

    def test_nan_time_rejected(self):
        # a NaN is not a success; nor is a None, which numpy reads as NaN
        for times in ([math.nan, 1.0], [None, 1.0]):
            with pytest.raises(ValueError, match="NaN"):
                ert(times, 5.0)

    def test_infinite_budget_rejected(self):
        # +inf is a miss, so a budget of +inf would count it as a success
        with pytest.raises(ValueError, match="finite"):
            ert([1.0, math.inf], math.inf)


def ecdf_oracle(records, targets_by_instance, grid):
    """Brute-force pair recount at every grid point."""
    fractions = []
    for t in grid:
        num = 0
        den = 0
        for record in records:
            for q in targets_by_instance[record.instance_id]:
                den += 1
                hit = None
                for elapsed, best_f in zip(record.elapsed, record.best_f):
                    if best_f <= q:
                        hit = elapsed
                        break
                if hit is not None and hit <= t:
                    num += 1
        fractions.append(num / den)
    return fractions


class TestAnytimeEcdf:
    def test_single_run_single_target(self):
        record = make_record([(5.0, 3, 0.5)])
        curve = anytime_ecdf(pair_times([record], {"sphere-d2": [1.0]}), [1.0, 5.0, 10.0])
        assert curve.fraction == (0.0, 1.0, 1.0)

    def test_half_of_two_pairs(self):
        hit = make_record([(2.0, 2, 0.5)])
        miss = make_record([(1.0, 1, 9.0)])
        curve = anytime_ecdf(pair_times([hit, miss], {"sphere-d2": [1.0]}), [1.0, 3.0])
        assert curve.fraction == (0.0, 0.5)
        assert curve.numerators == (0, 1)
        assert curve.denominators == (2, 2)

    def test_matches_bruteforce_recount(self, rng):
        records = [random_record(rng) for _ in range(40)]
        targets = {"sphere-d2": (60.0, 30.0, 0.0), "rastrigin-d5": (45.0, 10.0)}
        grid = sorted(float(rng.uniform(0, 20)) for _ in range(25))
        curve = anytime_ecdf(pair_times(records, targets), grid)
        assert list(curve.fraction) == ecdf_oracle(records, targets, grid)

    def test_monotone_within_unit_interval(self, rng):
        records = [random_record(rng) for _ in range(30)]
        targets = {"sphere-d2": (50.0, 20.0), "rastrigin-d5": (50.0, 20.0)}
        curve = anytime_ecdf(pair_times(records, targets), default_time_grid(10.0))
        assert all(0.0 <= f <= 1.0 for f in curve.fraction)
        assert all(b >= a for a, b in zip(curve.fraction, curve.fraction[1:]))

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            anytime_ecdf(pair_times([], {"sphere-d2": [1.0]}), [1.0])

    def test_nan_time_rejected(self):
        # a NaN is not a hit at any grid time; nor is a None, which numpy reads as NaN
        for times in ([math.nan, 1.0], [None, 1.0]):
            with pytest.raises(ValueError, match="NaN"):
                anytime_ecdf(times, [1.0, 5.0])


def median_oracle(records, grid, bootstrap_samples, confidence, seed):
    """Median and percentile interval over the whole-array bootstrap."""
    values = np.array(
        [
            [min((f for e, f in zip(r.elapsed, r.best_f) if e <= t), default=math.inf) for t in grid]
            for r in records
        ]
    )
    boot_medians = bootstrap_oracle(values, bootstrap_samples, seed)
    alpha = (1.0 - confidence) / 2.0
    lo = np.quantile(boot_medians, alpha, axis=0, method="lower")
    hi = np.quantile(boot_medians, 1.0 - alpha, axis=0, method="higher")
    return tuple(
        tuple(float(v) for v in column) for column in (np.median(values, axis=0), lo, hi)
    )


def bootstrap_oracle(values, bootstrap_samples, seed):
    """The gather bootstrap: the B x R x G resample itself, then np.median."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.shape[0], size=(bootstrap_samples, values.shape[0]))
    return np.median(values[idx], axis=1)


# values whose medians test the bits: ties, zeros of both signs, both
# infinities, and pairs whose sum overflows (1e308 + 1e308 is inf)
EDGE_VALUES = (math.inf, 1e308, 1e308, 2.5, 1.0, 1.0, 0.0, -0.0, -0.0, -1.0, -1e308, -math.inf)

# (R, B): R of 1 and 2, odd and even R; R of 255 and 256 counts in uint8
# and uint16; R of 2,000 draws the resamples in chunks of 32, 32, 32 and 5.
# The ranks are walked in blocks of 2**16 // (D * B) ranks (at least one) of
# the D columns: at B of about 100 a block holds 40 to 655 ranks, so R = 7
# fits in one, and R = 60, 61, 109, 700, 701 and 2,000 end in a partial
# block (R = 109 leaves 12 columns a last block of one rank). At B = 5,462,
# one rank of 12 columns outgrows 2**16 entries and 9 columns take one rank
# a block, while 4 or 5 columns take two, which R = 21 ends in a block of one.
BOOTSTRAP_SHAPES = [
    (1, 101), (2, 101), (7, 101), (60, 101), (61, 100), (109, 101), (700, 101), (701, 101),
    (255, 101), (256, 101), (2000, 101), (20, 5462), (21, 5462),
]


def edge_records(rng, R, grid):
    """R runs whose best-so-far steps through EDGE_VALUES, so that the first
    grid column is all +inf and later columns mix ties, signed zeros and
    overflowing pairs."""
    records = []
    for _ in range(R):
        steps = sorted(rng.choice(len(grid), size=int(rng.integers(0, 4)), replace=False))
        picks = sorted(rng.choice(len(EDGE_VALUES) - 1, size=len(steps), replace=False) + 1)
        points, last = [], math.inf
        for k, (step, pick) in enumerate(zip(steps, picks)):
            value = EDGE_VALUES[pick]
            if value < last and step > 0:
                points.append((grid[step], k + 1, value))
                last = value
        records.append(make_record(points))
    return records


def best_so_far_oracle(records, grid):
    """The per-(run, grid point) bisect loop that one searchsorted per run replaced."""
    values = np.full((len(records), len(grid)), math.inf)
    for i, record in enumerate(records):
        for j, t in enumerate(grid):
            k = bisect_right(record.elapsed, t)
            if k:
                values[i, j] = record.best_f[k - 1]
    return values


class TestMedianTrajectory:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("R, B", BOOTSTRAP_SHAPES)
    def test_bootstrap_medians_are_the_gathered_medians_bit_for_bit(self, rng, R, B):
        # tobytes, because == takes -0.0 for 0.0
        pool = np.array(EDGE_VALUES)
        matrices = [
            np.full((R, 4), math.inf),
            rng.choice(pool, size=(R, 9)),
            rng.choice(pool[6:9], size=(R, 9)),  # zeros of both signs only
            np.repeat(rng.choice(pool, size=(R, 1)), 5, axis=1),  # one distinct column
            np.round(rng.standard_normal((R, 12)), 1),
        ]
        for seed, values in enumerate(matrices):
            med, boot_medians = _column_medians(values, B, seed)
            assert med.tobytes() == np.median(values, axis=0).tobytes()
            assert boot_medians.tobytes() == bootstrap_oracle(values, B, seed).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("R, B", BOOTSTRAP_SHAPES)
    def test_interval_is_the_gather_oracles_bit_for_bit(self, rng, R, B):
        grid = tuple(float(t) for t in range(1, 17))
        records = edge_records(rng, R, grid)
        curve = median_trajectory(RunColumns.of(records), grid, bootstrap_samples=B, confidence=0.9, seed=3)
        expected = median_oracle(records, grid, B, 0.9, 3)
        assert np.array([curve.median, curve.ci_lo, curve.ci_hi]).tobytes() == np.array(expected).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("R, D", [(500, 5), (100, 17)])
    def test_bootstrap_medians_at_restart_sweeps_shapes(self, rng, R, D):
        # restart-sweep's pairs of 500 and 100 runs at B = 1,000, whose walk
        # skips leading blocks and stops before the last
        pool = np.array(EDGE_VALUES)
        for seed, values in enumerate([np.round(rng.standard_normal((R, D)), 1), rng.choice(pool, size=(R, D))]):
            med, boot_medians = _column_medians(values, 1000, seed)
            assert med.tobytes() == np.median(values, axis=0).tobytes()
            assert boot_medians.tobytes() == bootstrap_oracle(values, 1000, seed).tobytes()

    def test_bootstrap_medians_when_the_walk_skips_and_stops_in_blocks_of_many_ranks(self, rng):
        # R = 2,000 at B = 101 and 3 columns: blocks of 2**16 // 303 = 216
        # ranks, the last one partial. Every lane's cumulative count stays at
        # or below (R-1)//2 through the first blocks and passes R//2 before
        # the last block starts, by counts drawn apart from metrics
        R, D, B, seed = 2000, 3, 101, 5
        values = np.round(rng.standard_normal((R, D)), 2)
        idx = np.random.default_rng(seed).integers(0, R, size=(B, R))
        counts = np.stack([np.bincount(row, minlength=R) for row in idx], axis=1)  # [run, resample]
        cum = np.cumsum(counts[np.argsort(values, axis=0)], axis=0)  # [rank, column, resample]
        step = 2**16 // (D * B)
        ends = [*range(step - 1, R, step)]
        assert 0 < R % step and ends[-1] < R - 1
        assert cum[ends[1]].max() <= (R - 1) // 2  # two blocks skipped
        assert cum[ends[-2]].min() > R // 2  # the walk is over before the last two blocks
        med, boot_medians = _column_medians(values, B, seed)
        assert med.tobytes() == np.median(values, axis=0).tobytes()
        assert boot_medians.tobytes() == bootstrap_oracle(values, B, seed).tobytes()

    def test_the_walk_skips_and_stops_at_the_middle_ranks_themselves(self, monkeypatch):
        # one rank a block, and an even R: the first rank that is not
        # skipped takes some lane's cumulative count to R//2 exactly, and one
        # rank after every lane's count passes (R-1)//2, some lane's is
        # still R//2. So a skip or a stop decided by the other middle rank
        # would move a draw
        monkeypatch.setattr(metrics, "_BOOTSTRAP_CHUNK", 1)
        R, D, B, seed = 40, 2, 101, 9
        values = np.round(np.random.default_rng(seed).standard_normal((R, D)), 2)
        idx = np.random.default_rng(seed).integers(0, R, size=(B, R))
        counts = np.stack([np.bincount(row, minlength=R) for row in idx], axis=1)  # [run, resample]
        cum = np.cumsum(counts[np.argsort(values, axis=0)], axis=0)  # [rank, column, resample]
        highest, lowest = cum.max(axis=(1, 2)), cum.min(axis=(1, 2))
        assert highest[np.argmax(highest > (R - 1) // 2)] == R // 2
        assert lowest[np.argmax(lowest > (R - 1) // 2) + 1] == R // 2
        med, boot_medians = _column_medians(values, B, seed)
        assert boot_medians.tobytes() == bootstrap_oracle(values, B, seed).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("B", [100, 1000, 5462])
    @pytest.mark.parametrize("confidence", [0.5, 0.95, 0.999])
    def test_interval_ranks_are_np_quantiles(self, rng, B, confidence):
        # the order statistics that np.quantile's "lower" and "higher" pick,
        # NaN included: two runs that end at -inf and two that never
        # improve have a NaN median, and resamples of them too
        grid = tuple(float(t) for t in range(1, 17))
        nan_median = [make_record([(3.0, 1, -math.inf)])] * 2 + [make_record([])] * 2
        for records in (edge_records(rng, 41, grid), nan_median):
            curve = median_trajectory(RunColumns.of(records), grid, bootstrap_samples=B, confidence=confidence, seed=2)
            expected = median_oracle(records, grid, B, confidence, 2)
            assert np.array([curve.median, curve.ci_lo, curve.ci_hi]).tobytes() == np.array(expected).tobytes()
        assert math.isnan(curve.ci_lo[-1]) and math.isnan(curve.ci_hi[-1])

    def test_best_so_far_matrix_is_the_bisect_oracles_bit_for_bit(self, rng):
        # empty runs, hits exactly on grid points, tied elapsed times and
        # signed zeros; the grid reaches before the first and past the last hit
        grid = tuple(float(t) for t in range(17))
        cases = [[], [make_record([])], edge_records(rng, 40, grid[1:])]
        cases.append([make_record([(2.0, 1, 0.0), (2.0, 2, -0.0), (5.5, 3, -1.0)])])
        cases.append([make_record([(3.0, 1, 2.0), (16.0, 2, 1.0), (20.0, 3, 0.5)])])  # on, on, past
        cases.append([make_record([]), make_record([(0.5, 1, 1.0), (16.5, 2, 0.0)]), make_record([])])
        cases.append([random_record(rng) for _ in range(200)])
        for records in cases:
            columns = RunColumns.of(records)
            for g in (grid, default_time_grid(8.0, 24), (0.5,)):
                expected = best_so_far_oracle(records, g)
                assert _best_so_far_matrix(columns, np.asarray(g)).tobytes() == expected.tobytes()

    def test_resample_counts_are_drawn_once_and_read_only(self):
        metrics._resample_counts.cache_clear()
        counts = metrics._resample_counts(7, 100, 3)
        assert metrics._resample_counts(7, 100, 3) is counts
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0] = 1
        assert metrics._resample_counts.cache_info().misses == 1

    def test_identical_runs_have_zero_width_interval(self):
        record = make_record([(1.0, 1, 5.0), (2.0, 2, 1.0)])
        curve = median_trajectory(RunColumns.of([record] * 4), [0.5, 1.5, 2.5], bootstrap_samples=200)
        assert curve.ci_lo == curve.ci_hi == curve.median
        assert curve.median == (math.inf, 5.0, 1.0)

    def test_odd_count_median(self):
        records = [make_record([(1.0, 1, v)]) for v in (1.0, 2.0, 9.0)]
        curve = median_trajectory(RunColumns.of(records), [2.0], bootstrap_samples=100)
        assert curve.median == (2.0,)

    def test_interval_contains_median_everywhere(self, rng):
        records = [random_record(rng, allow_empty=False) for _ in range(12)]
        curve = median_trajectory(RunColumns.of(records), default_time_grid(8.0), bootstrap_samples=1000)
        for lo, med, hi in zip(curve.ci_lo, curve.median, curve.ci_hi):
            assert lo <= med <= hi

    def test_too_few_bootstrap_samples_rejected(self):
        with pytest.raises(ValueError):
            median_trajectory(RunColumns.of([make_record([(1.0, 1, 0.0)])]), [1.0], bootstrap_samples=10)

    def test_nan_best_f_rejected(self):
        # no run records a NaN, and core.validate drops a logged one; even a
        # NaN past the grid is refused rather than carried into the medians
        for points in ([(1.0, 1, math.nan)], [(1.0, 1, 2.0), (9.0, 2, math.nan)]):
            columns = RunColumns.of([make_record([(1.0, 1, 5.0)]), make_record(points)])
            with pytest.raises(ValueError, match="NaN"):
                median_trajectory(columns, [1.0, 2.0], bootstrap_samples=100)

    @pytest.mark.parametrize("grid", [[], [2.0, 1.0]])
    def test_empty_or_descending_grid_rejected(self, grid):
        # as anytime_ecdf rejects it, not an IndexError or a silent answer
        with pytest.raises(ValueError, match="time_grid must be non-empty and ordered"):
            median_trajectory(RunColumns.of([make_record([(1.0, 1, 0.0)])]), grid, bootstrap_samples=100)
        with pytest.raises(ValueError, match="time_grid must be non-empty and ordered"):
            anytime_ecdf([1.0, math.inf], grid)

    def test_equals_whole_array_bootstrap(self, rng):
        records = [random_record(rng) for _ in range(31)]
        # the grid runs past every record's last improvement, so later
        # columns repeat: both the computed and the copied columns are checked
        grid = default_time_grid(40.0, 24)
        curve = median_trajectory(RunColumns.of(records), grid, bootstrap_samples=300, confidence=0.9, seed=7)
        assert (curve.median, curve.ci_lo, curve.ci_hi) == median_oracle(records, grid, 300, 0.9, 7)

    def test_memory_is_bounded_by_one_grid_column(self, rng):
        import tracemalloc

        # a few B x R float arrays, where the whole B x R x G resample is 64
        # of them; at R = 2,000, 16 MB holds uint16 counts (4 MB) but no
        # int64 array of R * B entries
        for B, R, G, bound in [(1000, 100, 64, 8 * 1000 * 100 * 8), (1000, 2000, 64, 16e6)]:
            columns = RunColumns.of([random_record(rng, allow_empty=False) for _ in range(R)])
            grid = default_time_grid(8.0, G)
            tracemalloc.start()
            try:
                median_trajectory(columns, grid, bootstrap_samples=B)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (R, peak)


class TestPerformanceProfile:
    def test_single_solver_profile_is_flat_one(self):
        costs = CostMatrix(("a",), ("p1", "p2"), ((2.0,), (7.0,)))
        (curve,) = performance_profile(costs)
        assert curve.ratios == (1.0,)
        assert curve.rho == (1.0,)
        assert curve.rho_at(1.0) == 1.0 and curve.rho_at(100.0) == 1.0

    def test_hand_computed_two_by_two(self):
        costs = CostMatrix(("A", "B"), ("p1", "p2"), ((2.0, 4.0), (6.0, 3.0)))
        curve_a, curve_b = performance_profile(costs)
        assert curve_a.rho_at(1.0) == 0.5 and curve_a.rho_at(2.0) == 1.0
        assert curve_b.rho_at(1.0) == 0.5 and curve_b.rho_at(2.0) == 1.0
        assert curve_a.ratios == (1.0, 2.0)

    def test_all_failing_solver_has_zero_profile(self):
        costs = CostMatrix(("A", "B"), ("p1", "p2"), ((2.0, math.inf), (6.0, math.inf)))
        _, curve_b = performance_profile(costs)
        assert curve_b.ratios == ()
        assert curve_b.rho_at(1e9) == 0.0

    def test_all_failed_rows_are_excluded_with_count(self):
        costs = CostMatrix(
            ("A", "B"),
            ("p1", "p2", "p3"),
            ((2.0, 4.0), (math.inf, math.inf), (1.0, 1.0)),
        )
        curves = performance_profile(costs)
        assert all(c.n_instances == 2 and c.excluded == ("p2",) for c in curves)

    def test_excluded_names_the_all_failed_rows_in_instance_order(self, rng):
        for _ in range(200):
            costs = random_costs(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            # instance names out of sorted order, so instance order is not name order
            names = tuple(f"p{k}" for k in rng.permutation(len(costs.instances)))
            costs = CostMatrix(costs.solvers, names, costs.costs)
            expected = tuple(name for name, row in zip(names, costs.costs) if all(map(math.isinf, row)))
            for curve in performance_profile(costs):
                assert curve.excluded == expected

    def test_monotone_in_unit_interval(self, rng):
        for _ in range(30):
            n_solvers = int(rng.integers(1, 5))
            n_instances = int(rng.integers(1, 7))
            rows = tuple(
                tuple(
                    math.inf if rng.random() < 0.2 else float(rng.uniform(0.1, 50))
                    for _ in range(n_solvers)
                )
                for _ in range(n_instances)
            )
            costs = CostMatrix(
                tuple(f"s{i}" for i in range(n_solvers)),
                tuple(f"p{i}" for i in range(n_instances)),
                rows,
            )
            for curve in performance_profile(costs):
                assert all(r >= 1.0 for r in curve.ratios)
                assert all(0.0 <= v <= 1.0 for v in curve.rho)
                assert all(b >= a for a, b in zip(curve.rho, curve.rho[1:]))

    @pytest.mark.parametrize("scale", [0.1, 3.0, 1000.0])
    def test_scale_invariance(self, scale, rng):
        rows = tuple(
            tuple(math.inf if rng.random() < 0.2 else float(rng.uniform(0.5, 20)) for _ in range(3))
            for _ in range(6)
        )
        solvers = ("x", "y", "z")
        instances = tuple(f"p{i}" for i in range(6))
        base = performance_profile(CostMatrix(solvers, instances, rows))
        scaled_rows = tuple(tuple(c * scale for c in row) for row in rows)
        scaled = performance_profile(CostMatrix(solvers, instances, scaled_rows))
        probe_taus = (1.0, 1.3, 2.0, 5.5, 47.0, 1e6)
        for b, s in zip(base, scaled):
            assert b.rho == s.rho
            assert np.allclose(b.ratios, s.ratios, rtol=1e-12)
            for tau in probe_taus:
                assert b.rho_at(tau) == s.rho_at(tau)

    def test_matches_the_loop_oracle_bit_for_bit(self, rng):
        for _ in range(300):
            costs = random_costs(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            if rng.random() < 0.5:
                costs = amortize_oracle(costs, random_shares(rng, costs))
            curves, expected = performance_profile(costs), profile_oracle(costs)
            assert len(curves) == len(expected)
            for curve, (ratios, rho, n, n_excluded) in zip(curves, expected):
                assert hexed(curve.ratios) == hexed(ratios)
                assert hexed(curve.rho) == hexed(rho)
                assert (curve.n_instances, len(curve.excluded)) == (n, n_excluded)


def profile_oracle(costs):
    """Dolan-More profiles as a sort and an append-or-overwrite tie loop."""
    kept_rows = [row for row in costs.costs if any(math.isfinite(c) for c in row)]
    n = len(kept_rows)
    curves = []
    for j in range(len(costs.solvers)):
        finite_ratios = []
        for row in kept_rows:
            best = min(row)
            if math.isfinite(row[j]) and math.isfinite(best):
                finite_ratios.append(row[j] / best)
        finite_ratios.sort()
        ratios, rho = [], []
        for k, r in enumerate(finite_ratios, start=1):
            if ratios and r == ratios[-1]:
                rho[-1] = k / n
            else:
                ratios.append(r)
                rho.append(k / n)
        curves.append((tuple(ratios), tuple(rho), n, len(costs.costs) - n))
    return curves


def amortize_oracle(costs, tuning_time):
    """Each finite cost of solver s gains tuning_time[s] / n_instances."""
    n = len(costs.instances)
    surcharge = [tuning_time.get(s, 0.0) / n for s in costs.solvers]
    rows = tuple(
        tuple(c + surcharge[j] if math.isfinite(c) else c for j, c in enumerate(row))
        for row in costs.costs
    )
    return CostMatrix(solvers=costs.solvers, instances=costs.instances, costs=rows)


def hexed(values):
    return [float(v).hex() for v in values]


def random_costs(rng, n_solvers, n_instances):
    # few distinct finite costs, so ratios tie; inf marks failures and whole failed rows
    pool = rng.uniform(0.1, 50.0, size=int(rng.integers(1, 5)))
    rows = [
        [math.inf if rng.random() < 0.25 else float(rng.choice(pool)) for _ in range(n_solvers)]
        for _ in range(n_instances)
    ]
    if rng.random() < 0.3:
        rows[int(rng.integers(n_instances))] = [math.inf] * n_solvers
    return CostMatrix(
        tuple(f"s{j}" for j in range(n_solvers)), tuple(f"p{i}" for i in range(n_instances)), rows
    )


def random_shares(rng, costs):
    return {s: float(rng.uniform(0, 100)) for s in costs.solvers if rng.random() < 0.5}


class TestTuningThroughAnalyze:
    """analyze's tuning charge, read off the cost matrix it profiles."""

    T = 100.0

    def _matrix(self):
        return CostMatrix(
            ("A", "B"),
            tuple(f"p{i}" for i in range(10)),
            tuple((float(i + 1), math.inf if i == 3 else float(2 * i + 1)) for i in range(10)),
        )

    def _analyze(self, costs, tuning_time):
        # one run per pair, hitting target 1.0 at its cost (so ERT == cost) or never
        grouped = {
            (s, p): [make_record([(c, 1, 0.5)] if math.isfinite(c) else [(1.0, 1, 5.0)], p)]
            for j, s in enumerate(costs.solvers)
            for p, c in zip(costs.instances, (row[j] for row in costs.costs))
        }
        targets = {p: (1.0,) for p in costs.instances}
        return analyze(hits_by_pair(grouped, targets), self.T, targets, default_time_grid(self.T), tuning_time)

    def _profiled_costs(self, monkeypatch, costs, tuning_time):
        seen = []
        monkeypatch.setattr(metrics, "performance_profile", seen.append)
        self._analyze(costs, tuning_time)
        (profiled,) = seen
        return profiled

    def test_zero_share_keeps_the_bits(self, monkeypatch):
        costs = self._matrix()
        for tuning_time in ({}, {"A": 0.0}):
            profiled = self._profiled_costs(monkeypatch, costs, tuning_time)
            assert [hexed(row) for row in profiled.costs] == [hexed(row) for row in costs.costs]

    def test_share_is_spread_uniformly_over_instances(self, monkeypatch):
        costs = self._matrix()
        profiled = self._profiled_costs(monkeypatch, costs, {"A": 100.0})
        for before, after in zip(costs.costs, profiled.costs):
            assert after[0] == before[0] + 10.0
            assert after[1] == before[1]  # untouched solver

    def test_failures_stay_failures(self, monkeypatch):
        profiled = self._profiled_costs(monkeypatch, self._matrix(), {"B": 50.0})
        assert math.isinf(profiled.costs[3][1])

    def test_tuned_profile_never_beats_untuned(self, rng):
        costs = self._matrix()
        base_a = self._analyze(costs, {}).profiles[0][0]
        tuned_a = self._analyze(costs, {"A": float(rng.uniform(1, 200))}).profiles[0][0]
        for tau in (1.0, 1.5, 2.0, 4.0, 10.0, 1e4):
            assert tuned_a.rho_at(tau) <= base_a.rho_at(tau)

    def test_costs_match_the_amortize_oracle_bit_for_bit(self, rng, monkeypatch):
        for _ in range(50):
            costs = random_costs(rng, int(rng.integers(1, 4)), int(rng.integers(1, 7)))
            shares = random_shares(rng, costs)
            profiled = self._profiled_costs(monkeypatch, costs, shares)
            expected = amortize_oracle(costs, shares)
            assert [hexed(row) for row in profiled.costs] == [hexed(row) for row in expected.costs]


class TestAnalyze:
    T = 10.0
    TARGETS = {"sphere-d2": (5.0, 1.0), "rastrigin-d5": (5.0, 1.0)}

    def _grouped(self):
        # instance-major on purpose: ERT order comes from solvers, not insertion
        return {
            ("A", "sphere-d2"): [
                make_record([(1.0, 1, 4.0), (2.0, 2, 0.5)]),
                make_record([(3.0, 1, 6.0)]),
            ],
            ("B", "sphere-d2"): [make_record([(2.0, 1, 3.0)])],
            ("C", "sphere-d2"): [],
            ("A", "rastrigin-d5"): [make_record([(4.0, 1, 2.0)], instance_id="rastrigin-d5")],
            ("B", "rastrigin-d5"): [],
            ("C", "rastrigin-d5"): [],
        }

    def _analyze(self, grouped=None, **kwargs):
        grouped = self._grouped() if grouped is None else grouped
        hits = hits_by_pair(grouped, self.TARGETS)
        return analyze(hits, self.T, self.TARGETS, default_time_grid(self.T), **kwargs)

    def test_ert_in_solver_instance_target_order(self):
        result = self._analyze()
        assert list(result.ert) == [
            ("A", "sphere-d2", 5.0),
            ("A", "sphere-d2", 1.0),
            ("A", "rastrigin-d5", 5.0),
            ("A", "rastrigin-d5", 1.0),
            ("B", "sphere-d2", 5.0),
            ("B", "sphere-d2", 1.0),
        ]
        assert result.ert[("A", "sphere-d2", 5.0)] == ert([1.0, math.inf], self.T, target=5.0)
        assert result.ert[("A", "sphere-d2", 1.0)].ert == 12.0

    def test_empty_pair_has_no_ert_and_costs_inf_in_profile(self):
        result = self._analyze()
        assert not any(key[:2] == ("B", "rastrigin-d5") for key in result.ert)
        assert [c.solver_id for c in result.profiles[0]] == ["A", "B", "C"]
        a, b, c = result.profiles[0]  # costs (11, 2, inf) on sphere, (4, inf, inf) on rastrigin
        assert a.ratios == (1.0, 5.5) and a.rho == (0.5, 1.0)
        assert b.ratios == (1.0,) and b.rho == (0.5,) and b.n_instances == 2
        assert c.ratios == ()
        assert all(len(curve.excluded) == 1 for curve in result.profiles[1])

    def test_solver_without_records_has_no_ecdf(self):
        result = self._analyze()
        assert list(result.ecdf) == ["A", "B"]
        grouped = self._grouped()
        records = grouped[("A", "sphere-d2")] + grouped[("A", "rastrigin-d5")]
        assert result.ecdf["A"] == anytime_ecdf(
            pair_times(records, self.TARGETS), default_time_grid(self.T)
        )

    def test_tuning_time_is_amortized_into_profile_costs_only(self):
        plain = self._analyze()
        tuned = self._analyze(tuning_time={"A": 2.0})
        assert tuned.ert == plain.ert and tuned.ecdf == plain.ecdf
        # A pays 2.0 / 2 instances on each finite cost: (12, 2, inf) and (5, inf, inf)
        assert tuned.profiles[0][0].ratios == (1.0, 6.0)
        assert tuned.profiles[0][1:] == plain.profiles[0][1:]

    def test_zero_ert_is_rejected(self):
        grouped = {("A", "sphere-d2"): [make_record([(0.0, 1, 0.5)])], ("A", "rastrigin-d5"): []}
        with pytest.raises(RuntimeError, match="got an ERT of zero"):
            self._analyze(grouped)

    def test_each_first_hit_is_found_once(self, monkeypatch, tmp_path, capsys):
        # `timefair analyze` finds each pair's first hits in one call, one
        # time per (run, target) trial, and the ERT and the ECDF read those
        from timefair.cli import demo_config, main

        calls, ert_times, ecdf_times = [], [], []

        def counting(runs, ladder):
            calls.append(first_hits(runs, ladder))
            return calls[-1]

        monkeypatch.setattr(metrics, "first_hits", counting)
        monkeypatch.setattr(metrics, "ert", lambda times, T, target=None: ert_times.append(times) or ert(times, T, target))
        monkeypatch.setattr(metrics, "anytime_ecdf", lambda times, grid: ecdf_times.append(times) or anytime_ecdf(times, grid))
        config = demo_config()
        config.update(repetitions=2, output_dir=str(tmp_path / "out"))
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
        assert main(["analyze", str(tmp_path / "out")]) == 0, capsys.readouterr().err
        assert len(config["instances"]) == 1  # so each solver has one pair
        assert len(calls) == len(config["algorithms"])
        assert all(len(hits) == len(config["targets"]["values"]) for hits in calls)
        rows = [times for hits in calls for times in hits]
        assert len(ert_times) == len(rows)
        assert all(np.shares_memory(got, row) and np.array_equal(got, row) for got, row in zip(ert_times, rows))
        assert [times.tolist() for times in ecdf_times] == [hits.ravel().tolist() for hits in calls]

    def test_a_real_clock_hit_past_T_is_a_failure(self):
        # a real-clock run's last iteration can stamp its first hit past T:
        # the ERT counts that run as a failure, and the ECDF at T skips it
        runs = RunColumns.of([make_record([(0.25, 1, 3.0), (0.5, 2, 0.5)]), make_record([(0.5, 1, 3.0), (1.25, 2, 0.5)])])
        targets = {"sphere-d2": (1.0,)}
        result = analyze({("A", "sphere-d2"): first_hits(runs, (1.0,))}, 1.0, targets, default_time_grid(1.0))
        got = result.ert[("A", "sphere-d2", 1.0)]
        assert (got.ert, got.successes, got.runs) == ((0.5 + 1.0) / 1, 1, 2)
        assert (result.ecdf["A"].numerators[-1], result.ecdf["A"].denominators[-1]) == (1, 2)

    def test_ecdf_at_T_counts_what_the_ert_counts(self):
        # on the demo plan, each solver's ECDF at T holds exactly its ERT
        # successes over exactly its ERT runs, summed over its pairs
        from timefair.cli import demo_config, plan_from_config, validate_config
        from timefair.protocol import run_plan

        plan = plan_from_config(validate_config(demo_config()))
        T = plan.budget.wall_time_limit
        targets = {i: plan.targets.resolve() for i in plan.instances}  # absolute ladder
        result = analyze(hits_by_pair(run_plan(plan), targets), T, targets, default_time_grid(T))
        assert list(result.ecdf) == [spec.label for spec in plan.algorithms]
        for solver, curve in result.ecdf.items():
            mine = [r for (s, _, _), r in result.ert.items() if s == solver]
            assert curve.numerators[-1] == sum(r.successes for r in mine) > 0
            assert curve.denominators[-1] == sum(r.runs for r in mine)


class TestRankSumTest:
    def test_identical_samples_are_degenerate(self):
        result = rank_sum_test([4.0, 4.0, 4.0], [4.0, 4.0, 4.0])
        assert result.p_value == 1.0 and result.degenerate

    def test_full_separation_small_samples(self):
        result = rank_sum_test([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(0.1)
        assert result.method == "exact"

    def test_symmetric_under_sample_order(self, rng):
        a = list(rng.normal(size=5))
        b = list(rng.normal(size=7))
        assert rank_sum_test(a, b).p_value == pytest.approx(rank_sum_test(b, a).p_value)

    def test_matches_scipy_exact_without_ties(self, rng):
        for _ in range(50):
            a = list(rng.normal(size=int(rng.integers(3, 9))))
            b = list(rng.normal(loc=rng.normal(), size=int(rng.integers(3, 9))))
            mine = rank_sum_test(a, b)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert mine.method == "exact"
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_large_samples_use_normal_approximation(self, rng):
        a = list(rng.normal(size=15))
        b = list(rng.normal(size=15))
        result = rank_sum_test(a, b)
        assert result.method == "normal-approximation"
        ref = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=False
        )
        assert result.p_value == pytest.approx(ref.pvalue)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([1.0, 2.0], [3.0, 4.0, 5.0])

    def test_exact_p_equals_subset_enumeration_on_tied_samples(self, rng):
        for _ in range(60):
            n1 = int(rng.integers(3, 12))
            n2 = int(rng.integers(3, 15 - n1))
            # few distinct values, so most samples carry ties
            values = rng.integers(0, int(rng.integers(2, 8)), size=n1 + n2).astype(float)
            a, b = list(values[:n1]), list(values[n1:])
            result = rank_sum_test(a, b)
            if result.degenerate:
                continue
            assert result.method == "exact"
            assert result.p_value == rank_sum_enumeration_p(a, b)

    def test_midranks_match_the_loop_oracle_bit_for_bit(self, rng):
        specials = [0.0, -0.0, math.inf, -math.inf]
        for _ in range(3000):
            n = int(rng.integers(2, 41))
            pool = [float(v) for v in rng.integers(-3, 4, size=int(rng.integers(1, 6)))] + specials
            pooled = [
                float(rng.choice(pool)) if rng.random() < 0.7 else float(rng.normal())
                for _ in range(n)
            ]
            ranks, tie_counts = _midranks(pooled)
            assert hexed(ranks) == hexed(midranks_oracle(pooled))
            assert tie_counts == [len(list(group)) for _, group in itertools.groupby(sorted(pooled))]

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_sum_test([1.0, math.nan, 2.0], [3.0, 4.0, 5.0])

    def test_exact_p_at_the_pooled_size_limit(self):
        # the largest exact case, 10 + 10 with ties, against the enumeration
        a = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 8.0, 9.0, 9.0]
        b = [2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.0, 9.0, 10.0, 11.0]
        result = rank_sum_test(a, b)
        assert result.method == "exact"
        assert result.p_value == rank_sum_enumeration_p(a, b)


def midranks_oracle(pooled):
    """1-based ranks, each tie group given the mean of the ranks it spans."""
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_sum_enumeration_p(a, b) -> float:
    """Two-sided exact p of the rank-sum test by enumerating every subset."""
    n1 = len(a)
    ranks = scipy_stats.rankdata(a + b).tolist()
    mu = n1 * len(b) / 2.0
    d_obs = abs(sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0 - mu)
    hits = total = 0
    for combo in itertools.combinations(range(len(ranks)), n1):
        u = sum(ranks[i] for i in combo) - n1 * (n1 + 1) / 2.0
        hits += abs(u - mu) >= d_obs - 1e-9
        total += 1
    return hits / total


class TestTimeGrid:
    def test_endpoints_are_exact(self):
        grid = default_time_grid(50.0)
        assert len(grid) == 64
        assert grid[0] == 0.05 and grid[-1] == 50.0
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            default_time_grid(0.0)
        with pytest.raises(ValueError):
            default_time_grid(1.0, points=1)


@settings(max_examples=50)
@given(
    st.lists(
        st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=100.0)),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_ert_hypothesis_matches_oracle(times, T):
    expected, successes = ert_oracle(times, T)
    result = ert(times, T)
    assert result.successes == successes
    if math.isinf(expected):
        assert math.isinf(result.ert)
    else:
        assert math.isclose(result.ert, expected, rel_tol=1e-12)
