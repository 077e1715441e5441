"""Quantitative analysis of run logs.

All operations are pure functions over immutable inputs, and none logs. The
per-run functions take a (solver, instance) pair's runs as :class:`RunColumns`
only. Time-to-target uses the non-strict success rule best_f <= q. A first
hit is a float, ``+inf`` for a run that never reached the target; only
:func:`ert` applies the budget T, so a hit after T counts as a miss there.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import CostMatrix, ErtResult, RunRecord

DEFAULT_RELATIVE_LADDER = (10.0, 1.0, 0.1, 0.01, 0.001)
DEFAULT_GRID_POINTS = 64
DEFAULT_BOOTSTRAP_SAMPLES = 1000
DEFAULT_CONFIDENCE = 0.95
_BOOTSTRAP_CHUNK = 2**16  # entries of a temporary in median_trajectory's bootstrap
_DRAW_CHUNK = 2**14  # draws at a time in _resample_counts: 12 bytes each, with their counts


def default_time_grid(T: float, points: int = DEFAULT_GRID_POINTS) -> tuple[float, ...]:
    """Logarithmic grid from T/1000 to T; anytime behavior spans decades."""
    if T <= 0:
        raise ValueError("T must be > 0")
    if points < 2:
        raise ValueError("points must be >= 2")
    grid = np.geomspace(1e-3 * T, T, points)
    grid[0] = 1e-3 * T
    grid[-1] = T  # pin endpoints exactly so hits at T are counted
    return tuple(float(t) for t in grid)


def ert(times: Sequence[float], T: float, target: Optional[float] = None) -> ErtResult:
    """Expected running time: the sum of min(t_i, T) over all runs, over the successes.

    A run succeeds when its first hit t_i is at most T. Every other run, a
    miss (+inf) or a hit after T (which a real-clock run's last iteration
    can stamp), contributes T to the numerator and nothing to the success
    count; zero successes yield +inf with the success rate still reported.
    A NaN time is a ValueError.
    """
    times = np.asarray(times, dtype=float)
    if not len(times):
        raise ValueError("ert requires at least one run time")
    if not (math.isfinite(T) and T > 0):  # an infinite T would count a miss as a success
        raise ValueError("T must be finite and > 0")
    if np.isnan(times).any():
        raise ValueError("ert requires times that are not NaN")
    successes = int(np.count_nonzero(times <= T))
    total = sum(np.minimum(times, T).tolist())  # left to right, as Python floats
    value = total / successes if successes else math.inf
    return ErtResult(
        target=target,
        ert=value,
        successes=successes,
        runs=len(times),
        success_rate=successes / len(times),
    )


@dataclass(frozen=True)
class EcdfCurve:
    """Fraction of (run, target) pairs attained by each grid time."""

    time_grid: tuple[float, ...]
    fraction: tuple[float, ...]
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]


def _ordered_grid(time_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(t) for t in time_grid)
    if not grid or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("time_grid must be non-empty and ordered")
    return grid


def anytime_ecdf(times: Sequence[float], time_grid: Sequence[float]) -> EcdfCurve:
    """ECDF of first-hit times over (run, target) pairs.

    `times` holds one first-hit time per pair, +inf for a miss, as
    :func:`ert` takes them; :func:`analyze` pools every pair of a solver
    across instances, repetitions and targets. A pair counts from its first
    hit on, so a miss, or a hit after the grid's last time, never counts.
    A NaN time is a ValueError.
    """
    grid = _ordered_grid(time_grid)
    times = np.asarray(times, dtype=float)
    if not len(times):
        raise ValueError("no (run, target) pairs to aggregate")
    if np.isnan(times).any():
        raise ValueError("anytime_ecdf requires times that are not NaN")
    numerators = tuple(np.searchsorted(np.sort(times), grid, side="right").tolist())
    return EcdfCurve(
        time_grid=grid,
        fraction=tuple(n / len(times) for n in numerators),
        numerators=numerators,
        denominators=(len(times),) * len(grid),
    )


@dataclass(frozen=True)
class MedianCurve:
    """Median best-so-far over runs with a bootstrap confidence band.

    +inf marks grid times before a median run has evaluated anything.
    """

    time_grid: tuple[float, ...]
    median: tuple[float, ...]
    ci_lo: tuple[float, ...]
    ci_hi: tuple[float, ...]


@dataclass(frozen=True)
class RunColumns:
    """One pair's runs as flat columns, in run order: every improvement's
    run index, elapsed time and best_f."""

    runs: int
    run: np.ndarray
    elapsed: np.ndarray
    best_f: np.ndarray

    @classmethod
    def of(cls, records: Sequence[RunRecord]) -> RunColumns:
        """Columns from records: their own columns, concatenated."""
        return cls.of_lists(
            [len(r.elapsed) for r in records],
            [t for r in records for t in r.elapsed],
            [f for r in records for f in r.best_f],
        )

    @classmethod
    def of_lists(cls, lengths: Sequence[int], elapsed: Sequence[float], best_f: Sequence[float]) -> RunColumns:
        """Columns from each run's number of points and every point's
        elapsed and best_f, in run order."""
        run = np.repeat(np.arange(len(lengths)), lengths)
        return cls(len(lengths), run, np.array(elapsed, dtype=float), np.array(best_f, dtype=float))


def first_hits(columns: RunColumns, ladder: Sequence[float]) -> np.ndarray:
    """[target, run]: for each target q of `ladder`, each run's first hit,
    the elapsed of its first point with best_f <= q, or +inf for a run that
    never reached q. The hit may lie after the budget T; :func:`ert` is
    what counts it as a failure. One vectorised pass over the pair's
    columns per target."""
    hits = np.full((len(ladder), columns.runs), math.inf)
    for row, q in zip(hits, ladder):
        reached = np.flatnonzero(columns.best_f <= q)
        run = columns.run[reached]
        first = np.ones(len(run), dtype=bool)  # each run's first point at or below q
        first[1:] = run[1:] != run[:-1]
        row[run[first]] = columns.elapsed[reached[first]]
    return hits


def _best_so_far_matrix(columns: RunColumns, grid: np.ndarray) -> np.ndarray:
    """[run, grid time]: best_f of the run's last point at or before the
    time, +inf before its first point."""
    col = np.searchsorted(grid, columns.elapsed, side="left")  # first grid time a point is seen at
    last = col < len(grid)  # the last point of each (run, grid time) is its value there
    last[:-1] &= (columns.run[1:] != columns.run[:-1]) | (col[1:] != col[:-1])
    point = np.full((columns.runs, len(grid)), -1)
    point[columns.run[last], col[last]] = np.flatnonzero(last)
    np.maximum.accumulate(point, axis=1, out=point)  # carried forward; -1 before the first
    return np.append(columns.best_f, math.inf)[point]  # index -1 is the appended +inf


def median_trajectory(
    columns: RunColumns,
    time_grid: Sequence[float],
    bootstrap_samples: int = DEFAULT_BOOTSTRAP_SAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
) -> MedianCurve:
    """Per-grid-point median of best-so-far values with a percentile
    bootstrap CI over the runs of the pair's :class:`RunColumns`.

    Runs are sorted by value once in each of the D grid columns that differ
    from the one before them (the rest repeat its median and CI). The median
    is the mean of the middle order statistics, at ranks (R-1)//2 and R//2,
    as ``np.median`` takes it: the pair's mean for even R, +0.0 for -0.0 (so
    the order of tied runs does not matter); a NaN best_f is a ValueError.

    Each of the B resamples draws R runs with replacement. Its median is
    read from how often it drew each run, not from the drawn values: its
    middle order statistics are the values at the first sorted runs whose
    cumulative count exceeds (R-1)//2 and R//2, averaged as above, so the
    bits are those of ``np.median`` on the drawn values.

    Only the ranks that can hold a resample's middle draw get per-rank
    work. The sorted runs are taken in blocks of at most
    ``_BOOTSTRAP_CHUNK`` entries over the D x B lanes (column, resample), or
    one rank's lanes if more. A leading block after which every lane's
    cumulative count is still at most (R-1)//2 costs one sum of its counts.
    From the first block that is not, the counts are accumulated and
    compared rank by rank, and the walk stops at the end of the first block
    after which every lane's count exceeds R//2; later blocks cost nothing.
    On restart-sweep's pairs of 500 runs (B = 1,000, 5 columns), 195 to 208
    ranks are summed and 91 to 104 walked.

    Memory: the counts are one R x B array of the smallest unsigned dtype
    that holds R, drawn and counted a chunk of resamples at a time, and kept
    (read-only) until a call with another R, B or seed. Besides the counts,
    the R x G values (and the index of the point each holds), their sorted
    copy, a few D x B lanes and the B x D bootstrap medians, nothing
    outgrows a block.

    The band's ends are the bootstrap medians' order statistics at ranks
    floor((B-1)*a) and ceil((B-1)*(1-a)), a = (1 - confidence)/2, read from
    one partition: the values ``np.quantile``'s "lower" and "higher"
    methods give, and NaN in a column that holds one. Without
    interpolation, +inf sentinels never produce NaN.
    """
    if not columns.runs:
        raise ValueError("median_trajectory requires at least one run")
    if np.isnan(columns.best_f).any():
        raise ValueError("median_trajectory requires best_f values that are not NaN")
    if bootstrap_samples < 100:
        raise ValueError("bootstrap_samples must be >= 100")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    grid = _ordered_grid(time_grid)
    values = _best_so_far_matrix(columns, np.asarray(grid))
    new = np.concatenate(([True], np.any(values[:, 1:] != values[:, :-1], axis=0)))
    med, boot_medians = _column_medians(values[:, new], bootstrap_samples, seed)
    alpha = (1.0 - confidence) / 2.0
    # the ranks that np.quantile's "lower" and "higher" methods take, and the
    # last, where a NaN sorts: a column that holds one gives NaN, as there
    ranks = [math.floor((bootstrap_samples - 1) * alpha), math.ceil((bootstrap_samples - 1) * (1.0 - alpha))]
    ranked = np.partition(boot_medians, [*ranks, -1], axis=0)
    lo, hi = np.where(np.isnan(ranked[-1]), ranked[-1], ranked[ranks])
    expand = np.cumsum(new) - 1
    return MedianCurve(grid, *(tuple(column[expand].tolist()) for column in (med, lo, hi)))


def _column_medians(values: np.ndarray, bootstrap_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """[column] medians of the R x D `values` (no NaN, which
    :func:`median_trajectory` rejects) and [resample, column] medians of
    `bootstrap_samples` resamples of its rows, both read from one sort of
    each column as :func:`median_trajectory` says."""
    (R, D), B = values.shape, bootstrap_samples
    order = np.argsort(values, axis=0)  # [rank, column]: run
    ranked = np.take_along_axis(values, order, axis=0)  # [rank, column]: value
    middle = [*range((R - 1) // 2, R // 2 + 1)]  # one order statistic for odd R, two for even R
    med = np.mean(ranked[middle], axis=0)
    counts = _resample_counts(R, B, seed)
    # [k, column, resample]: ranks whose cumulative count is <= middle[k], the rank of draw middle[k]
    below = np.zeros((len(middle), D, B), dtype=counts.dtype)
    step = max(1, _BOOTSTRAP_CHUNK // (D * B))  # ranks per block
    skipped = 0  # leading ranks at or below middle[0] in every lane
    last = 0  # cumulative counts before the block
    for i in range(0, R, step):
        cum = counts[order[i : i + step]]  # [rank, column, resample]
        if skipped == i:  # every block so far was skipped
            total = np.add.reduce(cum, axis=0, dtype=cum.dtype)
            total += last  # at most R
            if total.max() <= middle[0]:  # the block's ranks count for every lane and draw
                skipped += len(cum)
                last = total
                del cum  # before the next block is gathered
                continue
            del total  # the peak stays that of the walk's blocks
        np.add(last, cum[0], out=cum[0])
        for j in range(1, len(cum)):
            np.add(cum[j - 1], cum[j], out=cum[j])
        last = cum[-1]
        for m, k in enumerate(middle):
            below[m] += np.add.reduce(cum <= k, axis=0, dtype=below.dtype)
        if last.min() > middle[-1]:  # no later rank counts for any lane
            break
    below += skipped
    del cum, last  # freed before the D x B medians are gathered
    drawn = np.take_along_axis(ranked.T[None], below, axis=2)  # [k, column, resample]: value
    return med, np.mean(drawn, axis=0).T


@functools.lru_cache(maxsize=1)  # an analysis draws with one B and seed, pairs of equal R in a row
def _resample_counts(R: int, B: int, seed: int) -> np.ndarray:
    """[run, resample]: how often each of B resamples of R runs drew each
    run, in the smallest unsigned dtype that holds R, read-only. The
    resamples are drawn a chunk at a time, as int32 (R < 2**31), which
    takes the same stream as one (B, R) int64 draw."""
    counts = np.empty((R, B), dtype=np.min_scalar_type(R))
    rng = np.random.default_rng(seed)
    chunk = max(1, _DRAW_CHUNK // R)
    for b in range(0, B, chunk):
        n = min(chunk, B - b)
        idx = rng.integers(0, R, size=(n, R), dtype=np.int32)
        idx *= n  # each resample's draws count in a slot of their own: < R * n
        idx += np.arange(n, dtype=np.int32)[:, None]
        counts[:, b : b + n] = np.bincount(idx.ravel(), minlength=R * n).reshape(R, n)
    counts.flags.writeable = False
    return counts


@dataclass(frozen=True)
class ProfileCurve:
    """One solver's performance profile: rho(tau) over cost ratios.

    `ratios` are the breakpoints (sorted, >= 1); `rho` the value from that
    breakpoint on. rho converges to the solver's finite-cost fraction;
    failures never satisfy any finite tau. `excluded` names the instances
    that every solver failed, in instance order (not in `n_instances`).
    """

    solver_id: str
    ratios: tuple[float, ...]
    rho: tuple[float, ...]
    n_instances: int
    excluded: tuple[str, ...]

    def rho_at(self, tau: float) -> float:
        k = bisect_right(self.ratios, tau)
        return self.rho[k - 1] if k else 0.0


def performance_profile(costs: CostMatrix) -> list[ProfileCurve]:
    """Dolan-Moré profiles with time as the cost measure.

    Instances where every solver failed have no finite ratio reference;
    they are excluded from the instance count, and each curve names them.
    """
    excluded = costs.all_failed_instances
    kept_rows = [row for instance, row in zip(costs.instances, costs.costs) if instance not in excluded]
    n = len(kept_rows)
    curves = []
    for j, solver in enumerate(costs.solvers):
        # a kept row has a finite entry, so its minimum is finite
        finite = [row[j] / min(row) for row in kept_rows if math.isfinite(row[j])]
        ratios, counts = np.unique(finite, return_counts=True)  # sorted, ties merged
        curves.append(
            ProfileCurve(
                solver_id=solver,
                ratios=tuple(ratios.tolist()),
                rho=tuple((np.cumsum(counts) / n).tolist()),
                n_instances=n,
                excluded=excluded,
            )
        )
    return curves


TUNING_AMORTIZATION = "uniform over the instance set"  # how analyze charges tuning_time


@dataclass(frozen=True)
class Analysis:
    """The time-cost metrics of one experiment, as :func:`analyze` builds them."""

    ert: Mapping[tuple[str, str, float], ErtResult]  # (solver, instance, target)
    ecdf: Mapping[str, EcdfCurve]  # by solver
    profiles: tuple[list[ProfileCurve], ...]  # by target-ladder position


def analyze(
    hits: Mapping[tuple[str, str], np.ndarray],
    T: float,
    targets_by_instance: Mapping[str, Sequence[float]],
    time_grid: Sequence[float],
    tuning_time: Mapping[str, float] = {},
) -> Analysis:
    """ERT to every target, one anytime ECDF per solver, and one
    performance profile per target-ladder position whose cost is the ERT
    plus the solver's `tuning_time` (finite seconds >= 0, as
    ``cli.validate_config`` checks them) divided by the number of instances.

    `hits` holds every (solver, instance) pair's first hits, a [target, run]
    array (+inf for a miss) as :func:`first_hits` gives it; solvers are
    reported in the order they first appear in it. `targets_by_instance`
    holds every instance's ladder, easiest first, all of one length. ERT
    results are ordered by solver, then instance, then target. A pair with
    no runs has no ERT and costs +inf in the profiles, whatever its tuning;
    a solver with no runs has no ECDF. The ERT and the ECDF read the same
    first hits; the ERT applies T, and the ECDF's grid ends at it.
    """
    solvers = tuple(dict.fromkeys(solver for solver, _ in hits))
    instances = tuple(targets_by_instance)
    erts: dict[tuple[str, str, float], ErtResult] = {}
    ecdf_times: dict[str, list[np.ndarray]] = {}  # by solver
    for solver in solvers:
        for instance in instances:
            for q, times in zip(targets_by_instance[instance], hits[(solver, instance)]):
                if len(times):
                    erts[(solver, instance, q)] = ert(times, T, target=q)
                    ecdf_times.setdefault(solver, []).append(times)
    if any(result.ert == 0.0 for result in erts.values()):
        raise RuntimeError(
            "time-based profiles need positive time costs; "
            "got an ERT of zero (virtual cost_per_eval = 0?)"
        )
    ecdf = {solver: anytime_ecdf(np.concatenate(times), time_grid) for solver, times in ecdf_times.items()}
    share = {s: tuning_time.get(s, 0.0) / len(instances) for s in solvers}
    profiles = []
    for ladder in zip(*targets_by_instance.values()):
        rows = [
            [(erts[s, i, q].ert if (s, i, q) in erts else math.inf) + share[s] for s in solvers]
            for i, q in zip(instances, ladder)
        ]
        costs = CostMatrix(solvers=solvers, instances=instances, costs=rows)
        profiles.append(performance_profile(costs))
    return Analysis(ert=erts, ecdf=ecdf, profiles=tuple(profiles))


@dataclass(frozen=True)
class RankSumResult:
    statistic: float  # Mann-Whitney U of the first sample
    p_value: float
    method: str  # "exact" or "normal-approximation"
    degenerate: bool = False  # all pooled values equal


def _midranks(pooled: Sequence[float]) -> tuple[list[float], list[int]]:
    """Each value's mean rank among its ties, and every tie group's size."""
    _, group, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group].tolist(), counts.tolist()


def rank_sum_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> RankSumResult:
    """Two-sided Mann-Whitney U test.

    Exact permutation distribution (tie-aware, counted by rank sum) when
    the pooled size is at most 20; tie-corrected normal approximation (no
    continuity correction) otherwise. All-equal samples are degenerate:
    p = 1. A NaN in either sample is a ValueError.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if len(a) < 3 or len(b) < 3:
        raise ValueError("each sample needs at least 3 values")
    n1, n2 = len(a), len(b)
    pooled = a + b
    if any(math.isnan(v) for v in pooled):
        raise ValueError("samples must not hold NaN")
    ranks, tie_counts = _midranks(pooled)
    u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    if len(tie_counts) == 1:
        return RankSumResult(statistic=u_obs, p_value=1.0, method="exact", degenerate=True)
    if n1 + n2 <= 20:
        # every n1-subset of the pooled midranks is equally likely under H0;
        # doubled midranks are integers, so counting subsets by their doubled
        # rank sum (a 0/1 knapsack over subset sizes) keeps ties exact
        doubled = [int(2 * r) for r in ranks]
        top = sum(doubled)
        ways = np.zeros((n1 + 1, top + 1), dtype=np.int64)  # [size, doubled sum]
        ways[0, 0] = 1
        for r in doubled:
            ways[1:, r:] += ways[:-1, : top + 1 - r].copy()
        d_obs = abs(u_obs - mu)
        # tolerance absorbs float noise in midrank sums
        hits = sum(
            int(count)
            for s, count in enumerate(ways[n1])
            if count and abs(s / 2 - n1 * (n1 + 1) / 2.0 - mu) >= d_obs - 1e-9
        )
        return RankSumResult(
            statistic=u_obs, p_value=hits / math.comb(n1 + n2, n1), method="exact"
        )
    n = n1 + n2
    tie_term = sum(t**3 - t for t in tie_counts) / (n * (n - 1))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    z = (u_obs - mu) / math.sqrt(sigma2)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return RankSumResult(statistic=u_obs, p_value=min(1.0, p), method="normal-approximation")
