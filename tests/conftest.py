import math

import numpy as np
import pytest

from timefair.core import RunRecord, Termination
from timefair.metrics import RunColumns, first_hits

TERMINATIONS = (
    Termination.TARGET_REACHED,
    Termination.BUDGET_EXHAUSTED,
    Termination.INTERNAL_STOP,
)


# catalog problem -> the coordinate of its known minimizer, repeated in every dimension
CATALOG_OPTIMA = {"sphere": 0.0, "rastrigin": 0.0, "rosenbrock": 1.0, "ackley": 0.0}


def optimum_point(instance_id: str) -> np.ndarray:
    """The known minimizer of a catalog instance."""
    name, _, dimension = instance_id.rpartition("-d")
    return np.full(int(dimension), CATALOG_OPTIMA[name])


def columns(points) -> dict:
    """RunRecord's three improvement columns, by name, from (elapsed, evals,
    best_f) points."""
    return {name: [p[k] for p in points] for k, name in enumerate(("elapsed", "evals", "best_f"))}


def evaluator_columns(evaluator) -> dict:
    """A RunEvaluator's improvements as the RunRecord columns they become."""
    return {"elapsed": evaluator.stamps, "evals": evaluator.counts, "best_f": evaluator.values}


def time_to_target(record: RunRecord, q: float, T: float = math.inf):
    """Earliest elapsed at which the run attained best_f <= q, else None:
    the oracle of ``metrics.first_hits``, read one record's columns at a
    time. A hit after T does not count."""
    for elapsed, best_f in zip(record.elapsed, record.best_f):
        if best_f <= q:
            return elapsed if elapsed <= T else None
    return None


def pair_times(records, targets_by_instance):
    """One first-hit time per (run, target) pair, None for a miss, for every
    target of each run's instance: the input of ``anytime_ecdf``."""
    return [time_to_target(r, q) for r in records for q in targets_by_instance[r.instance_id]]


def hits_by_pair(grouped, targets_by_instance, T):
    """``metrics.analyze``'s input from each (solver, instance) pair's records."""
    columns = {pair: RunColumns.of(records) for pair, records in grouped.items()}
    return {pair: first_hits(runs, targets_by_instance[pair[1]], T) for pair, runs in columns.items()}


def run_values(record: RunRecord) -> tuple:
    """A record's run as ``core.validate`` takes it: its elapsed, evals and
    best_f columns as lists, then its time_used, evals_used and
    max_step_seconds."""
    return (
        list(record.elapsed), list(record.evals), list(record.best_f),
        record.time_used, record.evals_used, record.max_step_seconds,
    )


def random_record(rng: np.random.Generator, allow_empty: bool = True) -> RunRecord:
    """A structurally valid RunRecord with random improvement columns."""
    n_points = int(rng.integers(0 if allow_empty else 1, 9))
    points = []
    elapsed = 0.0
    evals = 0
    best = float(rng.normal(50.0, 20.0))
    for _ in range(n_points):
        elapsed += float(rng.uniform(1e-4, 2.0))
        evals += int(rng.integers(1, 40))
        best -= float(rng.uniform(1e-6, 10.0))
        points.append((elapsed, evals, best))
    time_used = elapsed + float(rng.uniform(0.0, 1.0))
    evals_used = evals + int(rng.integers(0, 20)) if n_points else 0
    return RunRecord(
        algorithm_id=str(rng.choice(["alpha", "beta", "gamma"])),
        instance_id=str(rng.choice(["sphere-d2", "rastrigin-d5"])),
        seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
        **columns(points),
        time_used=time_used,
        evals_used=evals_used,
        termination=TERMINATIONS[int(rng.integers(0, 3))],
        repetition=int(rng.integers(0, 5)),
        run_index=int(rng.integers(0, 5)),
        n_clamped=int(rng.integers(0, 3)),
        max_step_seconds=float(rng.uniform(0.0, 0.5)),
    )


def edge_config() -> dict:
    """A virtual-clock config whose random-search runs stop inside a drawn
    block in every way a run stops: at the hardest target (sphere-d1), at
    the eval cap of 700 (the arms without overhead), at T (rs-100, whose
    ``synthetic_overhead`` makes T bind first) and at ``max_iterations``
    of 70 and 100, which are no multiples of the block size; the cost per
    evaluation is not dyadic. The PSO arm steps 8-row batches."""
    return {
        "budget": {"wall_time_limit": 2.5, "eval_cap": 700},
        "targets": {"kind": "relative", "values": [10.0, 1.0, 0.1, 0.02]},
        "repetitions": 4,
        "master_seed": 11,
        "clock": {"mode": "virtual", "cost_per_eval": 0.0031},
        "algorithms": [
            {"label": "rs-70", "kind": "random-search", "params": {"max_iterations": 70}},
            {
                "label": "rs-100",
                "kind": "random-search",
                "params": {"max_iterations": 100},
                "wrappers": {"synthetic_overhead": 0.0017},
            },
            {"label": "rs", "kind": "random-search"},
            {"label": "pso", "kind": "pso", "params": {"swarm_size": 8, "max_iterations": 5}},
        ],
        "instances": ["sphere-d1", "sphere-d2", "rastrigin-d3"],
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
