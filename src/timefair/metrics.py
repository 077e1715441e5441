"""Quantitative analysis of run logs.

All operations are pure functions over immutable inputs. Time-to-target
uses the non-strict success rule best_f <= q. A target time of ``None``
means the target was not reached within the run (NotReached).
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import CostMatrix, ErtResult, RunRecord

logger = logging.getLogger(__name__)

DEFAULT_RELATIVE_LADDER = (10.0, 1.0, 0.1, 0.01, 0.001)
DEFAULT_GRID_POINTS = 64
DEFAULT_BOOTSTRAP_SAMPLES = 1000
DEFAULT_CONFIDENCE = 0.95
_BOOTSTRAP_CHUNK = 2**16  # cumulative resample counts held at once by median_trajectory


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


def time_to_target(record: RunRecord, q: float, T: float = math.inf) -> Optional[float]:
    """Earliest elapsed at which the run attained best_f <= q, else None.

    Hits after T (malformed logs only; runs never outlive the budget) do
    not count.
    """
    for point in record.trajectory:
        if point.best_f <= q:
            return point.elapsed if point.elapsed <= T else None
    return None


def ert(
    times: Sequence[Optional[float]],
    T: float,
    target: Optional[float] = None,
) -> ErtResult:
    """Expected running time: sum of min(t_i, T) over successes.

    Unsuccessful runs (None) contribute T to the numerator and nothing to
    the success count; zero successes yield +inf with the success rate
    still reported. Successful times are clamped at T for robustness
    against malformed logs, though first-hit logging keeps them <= T.
    """
    times = list(times)
    if not times:
        raise ValueError("ert requires at least one run time")
    if T <= 0:
        raise ValueError("T must be > 0")
    successes = sum(1 for t in times if t is not None)
    total = sum(T if t is None else min(t, T) for t in times)
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


def anytime_ecdf(
    records: Sequence[RunRecord],
    targets_by_instance: Mapping[str, Sequence[float]],
    time_grid: Sequence[float],
) -> EcdfCurve:
    """ECDF of first-hit times over all (run, target) pairs.

    Aggregates across instances and repetitions: each run contributes one
    pair per target defined for its instance.
    """
    grid = tuple(float(t) for t in time_grid)
    if not grid or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("time_grid must be non-empty and ordered")
    hits: list[float] = []
    pairs = 0
    for record in records:
        for q in targets_by_instance[record.instance_id]:
            pairs += 1
            t = time_to_target(record, q)
            if t is not None:
                hits.append(t)
    if pairs == 0:
        raise ValueError("no (run, target) pairs to aggregate")
    hits.sort()
    numerators = tuple(bisect_right(hits, t) for t in grid)
    return EcdfCurve(
        time_grid=grid,
        fraction=tuple(n / pairs for n in numerators),
        numerators=numerators,
        denominators=(pairs,) * len(grid),
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


def _best_so_far_matrix(records: Sequence[RunRecord], grid: Sequence[float]) -> np.ndarray:
    values = np.full((len(records), len(grid)), math.inf)
    for i, record in enumerate(records):
        elapsed = [p.elapsed for p in record.trajectory]
        best = [p.best_f for p in record.trajectory]
        for j, t in enumerate(grid):
            k = bisect_right(elapsed, t)
            if k:
                values[i, j] = best[k - 1]  # carry last improvement forward
    return values


def median_trajectory(
    records: Sequence[RunRecord],
    time_grid: Sequence[float],
    bootstrap_samples: int = DEFAULT_BOOTSTRAP_SAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
) -> MedianCurve:
    """Per-grid-point median of best-so-far values with a percentile
    bootstrap CI over runs.

    Each of the B resamples draws R runs with replacement. Its median is
    read from how often it drew each run, not from the drawn values: with
    a grid column's runs sorted by value, the middle order statistics of a
    resample are the values at the first sorted runs whose cumulative
    count exceeds (R-1)//2 and R//2. Their mean is taken as ``np.median``
    takes it, so the bits are those of ``np.median`` on the drawn values:
    the pair's mean for even R, and +0.0 for a median of -0.0 (so the
    order of tied runs does not matter). A resample that drew a NaN has a
    NaN median. Memory: R·B int32 counts, plus one chunk of cumulative
    counts, at most ``_BOOTSTRAP_CHUNK`` of them or one column's R·B when
    that is more.

    Quantiles of the bootstrap medians use order statistics (no
    interpolation) so +inf sentinels never produce NaN.
    """
    records = list(records)
    if not records:
        raise ValueError("median_trajectory requires at least one record")
    if bootstrap_samples < 100:
        raise ValueError("bootstrap_samples must be >= 100")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    grid = tuple(float(t) for t in time_grid)
    values = _best_so_far_matrix(records, grid)
    med = np.median(values, axis=0)
    boot_medians = _bootstrap_medians(values, bootstrap_samples, seed)
    alpha = (1.0 - confidence) / 2.0
    lo = np.quantile(boot_medians, alpha, axis=0, method="lower")
    hi = np.quantile(boot_medians, 1.0 - alpha, axis=0, method="higher")
    return MedianCurve(
        time_grid=grid,
        median=tuple(float(v) for v in med),
        ci_lo=tuple(float(v) for v in lo),
        ci_hi=tuple(float(v) for v in hi),
    )


def _bootstrap_medians(values: np.ndarray, bootstrap_samples: int, seed: int) -> np.ndarray:
    """[resample, column] medians of `bootstrap_samples` resamples of the
    rows of the R x G `values`, counted as :func:`median_trajectory` says."""
    R, B = values.shape[0], bootstrap_samples
    idx = np.random.default_rng(seed).integers(0, R, size=(B, R))
    idx *= B
    idx += np.arange(B)[:, None]
    counts = np.bincount(idx.ravel(), minlength=R * B)  # [r * B + b]: draws of run r in resample b
    del idx
    counts = counts.astype(np.int32).reshape(R, B)
    # Resample only the grid columns that differ from the one before them (the
    # rest repeat its medians), as many at a time as _BOOTSTRAP_CHUNK allows.
    new = np.concatenate(([True], np.any(values[:, 1:] != values[:, :-1], axis=0)))
    distinct = values[:, new].T
    order = np.argsort(distinct, axis=1)  # [column, rank]: run
    ranked = np.take_along_axis(distinct, order, axis=1)  # [column, rank]: value
    width = max(1, _BOOTSTRAP_CHUNK // counts.size)
    chunks = []
    for j in range(0, len(order), width):
        cum = counts[order[j : j + width]]  # [column, rank, resample]
        np.add.accumulate(cum, axis=1, out=cum)
        middle = [  # one order statistic for odd R, two for even R
            np.take_along_axis(ranked[j : j + width], np.count_nonzero(cum <= k, axis=1), axis=1)
            for k in range((R - 1) // 2, R // 2 + 1)
        ]
        chunks.append(np.mean(middle, axis=0))
    boot_medians = np.concatenate(chunks).T
    for j in np.flatnonzero(np.isnan(distinct).any(axis=1)):
        boot_medians[counts[np.isnan(distinct[j])].any(axis=0), j] = math.nan
    return boot_medians[:, np.cumsum(new) - 1]


@dataclass(frozen=True)
class ProfileCurve:
    """One solver's performance profile: rho(tau) over cost ratios.

    `ratios` are the breakpoints (sorted, >= 1); `rho` the value from that
    breakpoint on. rho converges to the solver's finite-cost fraction;
    failures never satisfy any finite tau.
    """

    solver_id: str
    ratios: tuple[float, ...]
    rho: tuple[float, ...]
    n_instances: int
    n_excluded: int

    def rho_at(self, tau: float) -> float:
        k = bisect_right(self.ratios, tau)
        return self.rho[k - 1] if k else 0.0


def performance_profile(costs: CostMatrix) -> list[ProfileCurve]:
    """Dolan-Moré profiles with time as the cost measure.

    Instances where every solver failed have no finite ratio reference;
    they are excluded from the instance count, with a warning.
    """
    excluded = set(costs.all_failed_instances)
    if excluded:
        logger.warning(
            "performance_profile: excluding %d all-failed instance(s): %s",
            len(excluded),
            ", ".join(sorted(excluded)),
        )
    kept_rows = [
        row
        for instance, row in zip(costs.instances, costs.costs)
        if instance not in excluded
    ]
    n = len(kept_rows)
    curves = []
    for j, solver in enumerate(costs.solvers):
        finite_ratios = []
        for row in kept_rows:
            best = min(row)
            if math.isfinite(row[j]) and math.isfinite(best):
                finite_ratios.append(row[j] / best)
        finite_ratios.sort()
        ratios: list[float] = []
        rho: list[float] = []
        for k, r in enumerate(finite_ratios, start=1):
            if ratios and r == ratios[-1]:
                rho[-1] = k / n
            else:
                ratios.append(r)
                rho.append(k / n)
        curves.append(
            ProfileCurve(
                solver_id=solver,
                ratios=tuple(ratios),
                rho=tuple(rho),
                n_instances=n,
                n_excluded=len(excluded),
            )
        )
    return curves


TUNING_AMORTIZATION = "uniform over the instance set"  # the rule of amortize_tuning


def amortize_tuning(costs: CostMatrix, tuning_time: Mapping[str, float]) -> CostMatrix:
    """Spread per-solver tuning time uniformly over the instance set.

    Each finite cost of solver s gains tuning_time[s] / n_instances;
    failures stay failures.
    """
    for solver, seconds in tuning_time.items():
        if solver not in costs.solvers:
            raise KeyError(f"unknown solver {solver!r} in tuning_time")
        if seconds < 0:
            raise ValueError("tuning_time must be >= 0")
    n = len(costs.instances)
    surcharge = [tuning_time.get(s, 0.0) / n for s in costs.solvers]
    rows = tuple(
        tuple(c + surcharge[j] if math.isfinite(c) else c for j, c in enumerate(row))
        for row in costs.costs
    )
    return CostMatrix(solvers=costs.solvers, instances=costs.instances, costs=rows)


@dataclass(frozen=True)
class Analysis:
    """The time-cost metrics of one experiment, as :func:`analyze` builds them."""

    ert: Mapping[tuple[str, str, float], ErtResult]  # (solver, instance, target)
    ecdf: Mapping[str, EcdfCurve]  # by solver
    profiles: tuple[list[ProfileCurve], ...]  # by target-ladder position


def analyze(
    grouped: Mapping[tuple[str, str], Sequence[RunRecord]],
    T: float,
    targets_by_instance: Mapping[str, Sequence[float]],
    time_grid: Sequence[float],
    tuning_time: Mapping[str, float] = {},
) -> Analysis:
    """ERT to every target, one anytime ECDF per solver, and one
    performance profile per target-ladder position whose cost is the ERT
    plus `tuning_time` amortized over the instances.

    `grouped` holds the records of every (solver, instance) pair, and
    solvers are reported in the order they first appear in it;
    `targets_by_instance` holds every instance's ladder, easiest first, all
    of one length. ERT results are ordered by solver, then instance, then
    target. A pair with no records has no ERT and costs +inf in the
    profiles; a solver with no records has no ECDF.
    """
    solvers = tuple(dict.fromkeys(solver for solver, _ in grouped))
    instances = tuple(targets_by_instance)
    erts: dict[tuple[str, str, float], ErtResult] = {}
    for solver in solvers:
        for instance in instances:
            records = grouped[(solver, instance)]
            if records:
                for q in targets_by_instance[instance]:
                    times = [time_to_target(r, q, T) for r in records]
                    erts[(solver, instance, q)] = ert(times, T, target=q)
    ecdf = {}
    for solver in solvers:
        records = [r for instance in instances for r in grouped[(solver, instance)]]
        if records:
            ecdf[solver] = anytime_ecdf(records, targets_by_instance, time_grid)
    profiles = []
    for ladder in zip(*targets_by_instance.values()):
        rows = tuple(
            tuple(erts[(s, i, q)].ert if (s, i, q) in erts else math.inf for s in solvers)
            for i, q in zip(instances, ladder)
        )
        if any(c == 0.0 for row in rows for c in row):
            raise RuntimeError(
                "time-based profiles need positive time costs; "
                "got an ERT of zero (virtual cost_per_eval = 0?)"
            )
        costs = CostMatrix(solvers=solvers, instances=instances, costs=rows)
        if tuning_time:
            costs = amortize_tuning(costs, tuning_time)
        profiles.append(performance_profile(costs))
    return Analysis(ert=erts, ecdf=ecdf, profiles=tuple(profiles))


@dataclass(frozen=True)
class RankSumResult:
    statistic: float  # Mann-Whitney U of the first sample
    p_value: float
    method: str  # "exact" or "normal-approximation"
    degenerate: bool = False  # all pooled values equal


def _midranks(pooled: Sequence[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def rank_sum_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> RankSumResult:
    """Two-sided Mann-Whitney U test.

    Exact permutation distribution (tie-aware, counted by rank sum) when
    the pooled size is at most 20; tie-corrected normal approximation (no
    continuity correction) otherwise. All-equal samples are degenerate:
    p = 1.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if len(a) < 3 or len(b) < 3:
        raise ValueError("each sample needs at least 3 values")
    n1, n2 = len(a), len(b)
    pooled = a + b
    ranks = _midranks(pooled)
    u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    if len(set(pooled)) == 1:
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
    tie_counts = [len(list(g)) for _, g in itertools.groupby(sorted(pooled))]
    tie_term = sum(t**3 - t for t in tie_counts) / (n * (n - 1))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    z = (u_obs - mu) / math.sqrt(sigma2)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return RankSumResult(statistic=u_obs, p_value=min(1.0, p), method="normal-approximation")
