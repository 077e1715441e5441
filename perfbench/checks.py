"""Correctness checks and the arithmetic behind the end-to-end metrics.

Everything here reads the program's outputs (JSONL logs, CSVs, captured
stdout) with the standard library alone, so the checks do not share code
with what they check.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path


def read_logs(out_dir: Path) -> list[dict]:
    """Every run in ``runs/*/*.jsonl`` as a dict: algorithm, instance,
    repetition, trajectory [(elapsed, best_f)], time_used, evals_used."""
    runs = []
    for path in sorted(Path(out_dir).glob("runs/*/*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["kind"] == "run_header":
                    run = {
                        "algorithm": obj["algorithm_id"],
                        "instance": obj["instance_id"],
                        "repetition": obj["repetition"],
                        "trajectory": [],
                    }
                elif obj["kind"] == "improvement":
                    run["trajectory"].append((obj["elapsed"], obj["best_f"]))
                elif obj["kind"] == "run_end":
                    run["time_used"] = obj["time_used"]
                    run["evals_used"] = obj["evals_used"]
                    runs.append(run)
    return runs


def budget_totals(runs: list[dict]) -> dict[tuple, float]:
    """Σ time_used per (algorithm, instance, repetition)."""
    totals: dict[tuple, float] = defaultdict(float)
    for run in runs:
        totals[(run["algorithm"], run["instance"], run["repetition"])] += run["time_used"]
    return dict(totals)


def ert_oracle(runs: list[dict], targets: list[float], T: float) -> dict[tuple, tuple]:
    """(solver, instance, target) -> (ert, successes, runs, success_rate).

    A run succeeds at its first logged point with best_f <= q and elapsed
    <= T; ERT is (Σ successful times + T per failure) / successes, or inf.
    """
    grouped: dict[tuple, list] = defaultdict(list)
    for run in runs:
        grouped[(run["algorithm"], run["instance"])].append(run)
    table = {}
    for (solver, instance), group in grouped.items():
        for q in targets:
            total, successes = 0.0, 0
            for run in group:
                hit = next((t for t, f in run["trajectory"] if f <= q), None)
                if hit is not None and hit <= T:
                    total += hit
                    successes += 1
                else:
                    total += T
            ert = total / successes if successes else math.inf
            table[(solver, instance, q)] = (ert, successes, len(group), successes / len(group))
    return table


def read_ert_table(path: Path) -> dict[tuple, tuple]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (row["solver"], row["instance"], float(row["target"])): (
                float(row["ert"]),
                int(row["successes"]),
                int(row["runs"]),
                float(row["success_rate"]),
            )
            for row in csv.DictReader(fh)
        }


def report_ok(stdout: str, expected_na: set[int]) -> bool:
    """Every checklist item PASS, except the NA items the config explains
    (3 without targets, 7 without tuning), and a PASS verdict."""
    items = {}
    verdict = None
    for line in stdout.splitlines():
        if line.startswith("item "):
            number = int(line.split()[1])
            items[number] = line.split("): ", 1)[1].split(" ")[0]
        elif line.startswith("checklist verdict: "):
            verdict = line.split(": ", 1)[1]
    want = {n: ("NA" if n in expected_na else "PASS") for n in range(1, 9)}
    return items == want and verdict == ("PASS-with-note" if expected_na else "PASS")


def simulate_rechecks(stdout: str) -> list[str]:
    """The recheck column of simulate's ERT table, one entry per row."""
    rows, in_table = [], False
    for line in stdout.splitlines():
        if line.rstrip().endswith("recheck"):
            in_table = True
        elif in_table and not line.strip():
            break
        elif in_table:
            rows.append(line.split()[-1])
    return rows


def log_digests(out_dir: Path) -> dict:
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    return manifest["checklist"]["artifacts"]["log_digests"]


# One unit of each reference kernel (speed.py) takes this long on the
# nominal machine.
REFERENCE_NOMINAL_S = 0.0003


def speed_scale(reference: dict[str, list[float]]) -> float:
    """Factor that turns seconds measured alongside ``reference`` (each
    kernel's seconds per unit) into seconds on the nominal machine: the
    nominal unit time over the geometric mean of the kernels' means."""
    means = [sum(times) / len(times) for times in reference.values()]
    return REFERENCE_NOMINAL_S / math.prod(means) ** (1.0 / len(means))


def harness_share(evals: int, objective_us: float, time_used_s: float) -> float:
    """Share of the time charged to an algorithm that the objective did not
    use: 1 - evals × objective µs/eval / Σ time_used."""
    return 1.0 - evals * objective_us * 1e-6 / time_used_s


def real_clock_figures(runs: list[dict], objective_us: dict[str, float],
                       scale: float = 1.0) -> dict[str, float]:
    """Per algorithm: µs charged per evaluation (times ``scale``, see
    ``speed_scale``) and the harness share, from Σ time_used and
    Σ evals_used over its runs. The share is a ratio of two times taken in
    one process, so it is not scaled."""
    figures = {}
    for algorithm, cost in objective_us.items():
        used = sum(r["time_used"] for r in runs if r["algorithm"] == algorithm)
        evals = sum(r["evals_used"] for r in runs if r["algorithm"] == algorithm)
        figures[f"real.us_per_eval.{algorithm}"] = used / evals * 1e6 * scale
        figures[f"real.harness_share.{algorithm}"] = harness_share(evals, cost, used)
    return figures
