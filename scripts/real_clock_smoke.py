#!/usr/bin/env python3
"""Real-clock smoke experiment: a short timed run on the actual machine.

Runs random search and PSO for 2 wall-clock seconds each on sphere-d5,
then prints the measured budget overshoot from the manifest (bounded by
one iteration, since budget checks happen between iterations) and, per
arm, the microseconds charged per evaluation: sum(time_used) /
sum(evals_used) over its runs, read back from the run logs.

Usage: python scripts/real_clock_smoke.py [output_dir]
"""

import json
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

from timefair.cli import main
from timefair.report import parse_run_log, run_log_path

CONFIG = {
    "budget": {"wall_time_limit": 2.0},
    "targets": {"kind": "relative", "values": [10.0, 1.0, 0.1, 0.01, 0.001]},
    "repetitions": 1,
    "master_seed": 7,
    "clock": {"mode": "real"},
    "algorithms": [
        {"label": "random-search", "kind": "random-search"},
        {"label": "pso", "kind": "pso", "params": {"swarm_size": 40}},
    ],
    "instances": ["sphere-d5"],
}


def run() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "timefair-real-smoke"
    with TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "real.json"
        config_path.write_text(json.dumps(CONFIG))
        code = main(["run", "--config", str(config_path), "--out", out])
    if code != 0:
        return code
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    budget = manifest["checklist"]["budget"]
    print(f"budget T = {budget['wall_time_limit_seconds']} s (real clock)")
    print(f"max overshoot: {budget['max_overshoot_seconds'] * 1e3:.3f} ms")
    print(f"max single iteration: {budget['max_step_seconds'] * 1e3:.3f} ms")
    avg = manifest["checklist"]["restart_policy"]["average_total_runs"]
    for key, value in avg.items():
        print(f"runs within T for {key}: {value:g}")
    for arm in CONFIG["algorithms"]:
        records = [
            record
            for instance_id in CONFIG["instances"]
            for record in parse_run_log(run_log_path(out, arm["label"], instance_id)).records
        ]
        used = sum(r.time_used for r in records)
        evals = sum(r.evals_used for r in records)
        print(f"charged per evaluation for {arm['label']}: {used / evals * 1e6:.2f} us")
    return main(["analyze", out])


if __name__ == "__main__":
    sys.exit(run())
