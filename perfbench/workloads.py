"""Workload configs, generated from the workload seed.

The program only ever sees the generated JSON file; the seed becomes
``master_seed`` (or ``run --seed`` for the bundled demo). Virtual-clock
costs are dyadic, so run durations are float-exact and the ERT oracle can
demand exact equality with ``ert_table.csv``.
"""

from __future__ import annotations

import json
from pathlib import Path

# Every catalog objective (sphere, rastrigin, rosenbrock, ackley) has its
# optimum at f = 0, so relative targets resolve to their precisions.
F_OPT = 0.0

# Real-clock stage: each (algorithm, repetition) spends the whole T.
REAL_T = 0.0625
REAL_REPETITIONS = 4
REAL_INSTANCE = "sphere-d5"
REAL_SWARM = 40


def demo_config(root: Path) -> dict:
    """The repository's bundled demo, read as users run it."""
    return json.loads((root / "configs" / "demo.json").read_text(encoding="utf-8"))


def restart_sweep_config(seed: int) -> dict:
    """~2,500 short runs with few evaluations each: stresses the restart
    loop, log write/parse and the bootstrap in ``median_trajectory``."""
    return {
        "budget": {"wall_time_limit": 50.0},
        "targets": {"kind": "relative", "values": [1e4, 1e3, 1e2, 10.0, 1.0, 0.1, 0.01]},
        "repetitions": 5,
        "master_seed": seed,
        "clock": {"mode": "virtual", "cost_per_eval": 0.125},
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
        "metrics": {"time_grid_points": 64, "bootstrap_samples": 1000, "confidence": 0.95},
    }


def real_clock_config(seed: int) -> dict:
    """Cheapest objective on the real clock, no targets: the harness's share
    of charged time is at its largest here."""
    return {
        "budget": {"wall_time_limit": REAL_T},
        "repetitions": REAL_REPETITIONS,
        "master_seed": seed,
        "clock": {"mode": "real"},
        "algorithms": [
            {"label": "random-search", "kind": "random-search"},
            {"label": "pso", "kind": "pso", "params": {"swarm_size": REAL_SWARM}},
        ],
        "instances": [REAL_INSTANCE],
        "metrics": {"time_grid_points": 64, "bootstrap_samples": 200, "confidence": 0.95},
    }


def resolved_targets(config: dict) -> list[float] | None:
    targets = config.get("targets")
    if targets is None:
        return None
    if targets["kind"] == "absolute":
        return [float(v) for v in targets["values"]]
    return [F_OPT + float(v) for v in targets["values"]]
