"""Persistence and reproducibility: run logs, curve CSVs, manifest.

Run logs are JSON Lines (streamable, append-safe, language-neutral):
one ``run_header`` object per run, one ``improvement`` per best-so-far
event, one ``run_end`` with the termination summary. Objective values and
times round-trip exactly (shortest-repr decimal serialization). Curves go
to CSV so any external tool can plot them; the manifest is one JSON file
answering the eight reporting-checklist items. Every artifact is written
to a temporary file next to it and moved into place, so a failed write
leaves no half-written file under the final name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .clock import CLOCK_SCHEME_ID
from .core import ErtResult, RunRecord, Termination, TrajectoryPoint, validate
from .metrics import EcdfCurve, MedianCurve, ProfileCurve
from .seeds import SEED_SCHEME_ID

try:
    import psutil
except ImportError:  # best-effort probe; fields become NA
    psutil = None


class LogParseError(RuntimeError):
    """Strict-mode log parsing failure."""


MANIFEST_SCHEMA = "timefair-manifest/v1"
MANIFEST_NAME = "manifest.json"
EFFECTIVE_CONFIG_NAME = "effective_config.json"

# (item number, checklist name, manifest section key)
CHECKLIST_ITEMS = (
    (1, "budget specification", "budget"),
    (2, "restart policies", "restart_policy"),
    (3, "target definitions", "targets"),
    (4, "performance metrics", "metrics"),
    (5, "statistical rigor", "statistics"),
    (6, "computational environment", "environment"),
    (7, "tuning overhead", "tuning"),
    (8, "reproducibility artifacts", "artifacts"),
)


def run_log_path(out_dir: Path, label: str, instance_id: str) -> Path:
    return Path(out_dir) / "runs" / label / f"{instance_id}.jsonl"


def run_logs_on_disk(out_dir: Path) -> list[str]:
    """Every run log under `out_dir`, relative to it, sorted."""
    return sorted(str(p.relative_to(out_dir)) for p in Path(out_dir).glob("runs/*/*.jsonl"))


@contextmanager
def _atomic_open(path: Path):
    """Open a hidden ``.<name>.tmp`` beside `path` for writing (no
    artifact glob matches it); on success it replaces `path`, on failure
    it is removed and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n"


def write_run_log(
    records: Iterable[RunRecord],
    path: Path,
    params: Optional[dict] = None,
) -> None:
    """Write one JSONL log atomically, one write call per line; an error
    propagates so the experiment aborts visibly."""
    with _atomic_open(path) as fh:
        for record in records:
            header = {
                "kind": "run_header",
                "algorithm_id": record.algorithm_id,
                "instance_id": record.instance_id,
                "seed": record.seed,
                "repetition": record.repetition,
                "run_index": record.run_index,
            }
            if params is not None:
                header["params"] = params
            fh.write(_dump_line(header))
            for point in record.trajectory:
                fh.write(
                    _dump_line(
                        {
                            "kind": "improvement",
                            "elapsed": point.elapsed,
                            "evals": point.evals,
                            "best_f": point.best_f,
                        }
                    )
                )
            fh.write(
                _dump_line(
                    {
                        "kind": "run_end",
                        "termination": record.termination.value,
                        "time_used": record.time_used,
                        "evals_used": record.evals_used,
                        "n_clamped": record.n_clamped,
                        "max_step_seconds": record.max_step_seconds,
                    }
                )
            )


@dataclass
class ParseResult:
    records: list[RunRecord]
    issues: list[str]
    skipped_runs: int


def parse_run_log(path: Path, strict: bool = False) -> ParseResult:
    """Read a JSONL log back into validated RunRecords.

    Malformed lines and invariant violations are reported with line
    numbers; strict mode raises on the first issue, lenient mode skips
    the affected run and counts it.
    """
    path = Path(path)
    result = ParseResult(records=[], issues=[], skipped_runs=0)

    def issue(msg: str) -> None:
        result.issues.append(msg)
        if strict:
            raise LogParseError(f"{path}: {msg}")

    header: Optional[dict] = None
    header_line = 0
    points: list[TrajectoryPoint] = []
    run_broken = False

    def run_name(h: dict) -> str:
        return (
            f"{h.get('algorithm_id')}/{h.get('instance_id')} "
            f"rep={h.get('repetition')} run={h.get('run_index')}"
        )

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                kind = obj["kind"]
            except (json.JSONDecodeError, KeyError, TypeError):
                issue(f"line {lineno}: malformed log line")
                run_broken = header is not None
                continue
            if kind == "run_header":
                if header is not None:
                    issue(f"line {header_line}: run_end missing for run {run_name(header)}")
                    result.skipped_runs += 1
                header, header_line, points, run_broken = obj, lineno, [], False
            elif kind == "improvement":
                if header is None:
                    issue(f"line {lineno}: improvement outside of a run")
                    continue
                try:
                    points.append(
                        TrajectoryPoint(
                            elapsed=float(obj["elapsed"]),
                            evals=int(obj["evals"]),
                            best_f=float(obj["best_f"]),
                        )
                    )
                except (KeyError, TypeError, ValueError):
                    issue(f"line {lineno}: malformed improvement in run {run_name(header)}")
                    run_broken = True
            elif kind == "run_end":
                if header is None:
                    issue(f"line {lineno}: run_end outside of a run")
                    continue
                if run_broken:
                    result.skipped_runs += 1
                    header = None
                    continue
                try:
                    record = RunRecord(
                        algorithm_id=header["algorithm_id"],
                        instance_id=header["instance_id"],
                        seed=int(header["seed"]),
                        trajectory=tuple(points),
                        time_used=float(obj["time_used"]),
                        evals_used=int(obj["evals_used"]),
                        termination=Termination(obj["termination"]),
                        repetition=int(header.get("repetition", 0)),
                        run_index=int(header.get("run_index", 0)),
                        n_clamped=int(obj.get("n_clamped", 0)),
                        max_step_seconds=float(obj.get("max_step_seconds", 0.0)),
                    )
                except (KeyError, TypeError, ValueError):
                    issue(f"line {lineno}: malformed run_end for run {run_name(header)}")
                    result.skipped_runs += 1
                    header = None
                    continue
                violations = validate(record)
                if violations:
                    issue(
                        f"line {lineno}: invalid run {run_name(header)}: "
                        + "; ".join(violations)
                    )
                    result.skipped_runs += 1
                else:
                    result.records.append(record)
                header = None
            else:
                issue(f"line {lineno}: unknown record kind {kind!r}")
        if header is not None:
            issue(f"line {header_line}: run_end missing for run {run_name(header)}")
            result.skipped_runs += 1
    return result


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_ecdf_csv(curve: EcdfCurve, path: Path) -> None:
    _write_csv(
        path,
        ("time", "fraction", "n_num", "n_den"),
        zip(curve.time_grid, curve.fraction, curve.numerators, curve.denominators),
    )


def emit_profile_csv(curves: Sequence[ProfileCurve], path: Path) -> None:
    """Step curves as boundary pairs: each breakpoint contributes the
    value just before it and the value from it on."""
    rows = []
    for curve in curves:
        previous = 0.0
        for ratio, rho in zip(curve.ratios, curve.rho):
            rows.append((ratio, previous, curve.solver_id))
            rows.append((ratio, rho, curve.solver_id))
            previous = rho
    _write_csv(path, ("tau", "rho", "solver"), rows)


def emit_median_csv(curves: Mapping[str, MedianCurve], path: Path) -> None:
    rows = []
    for solver in curves:
        curve = curves[solver]
        for t, m, lo, hi in zip(curve.time_grid, curve.median, curve.ci_lo, curve.ci_hi):
            rows.append((t, m, lo, hi, solver))
    _write_csv(path, ("time", "median", "ci_lo", "ci_hi", "solver"), rows)


def emit_ert_table(ert: Mapping[tuple[str, str, float], ErtResult], path: Path) -> None:
    header = ("solver", "instance", "target", "ert", "successes", "runs", "success_rate")
    _write_csv(path, header, [(*key, r.ert, r.successes, r.runs, r.success_rate) for key, r in ert.items()])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _na(reason: str) -> dict:
    return {"status": "NA", "reason": reason}


def _is_na(section) -> bool:
    return isinstance(section, dict) and section.get("status") == "NA"


def probe_environment(virtual: bool) -> dict:
    """Best-effort hardware/software probe; unknown fields are NA with a
    reason, never guessed."""
    env: dict = {
        "timer": "virtual" if virtual else "perf_counter (monotonic)",
        "timer_resolution_seconds": time.get_clock_info("perf_counter").resolution,
        "os": platform.platform(),
        "python": platform.python_version(),
    }
    env["numpy"] = np.__version__
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if cpu_model is None:
        cpu_model = platform.processor() or None
    env["cpu_model"] = cpu_model if cpu_model else _na("could not determine CPU model")
    if psutil is not None:
        physical = psutil.cpu_count(logical=False)
        logical = psutil.cpu_count(logical=True)
        env["physical_cores"] = physical if physical else _na("unknown")
        env["logical_cores"] = logical if logical else _na("unknown")
        env["memory_gb"] = round(psutil.virtual_memory().total / 2**30, 2)
    else:
        env["physical_cores"] = _na("psutil unavailable")
        env["logical_cores"] = _na("psutil unavailable")
        env["memory_gb"] = _na("psutil unavailable")
    env["optimization_flags"] = _na("interpreted Python; no build flags recorded")
    return env


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build_manifest(
    plan,
    grouped_records: Mapping[tuple[str, str], Sequence[RunRecord]],
    out_dir: Path,
    effective_config: dict,
) -> dict:
    """Assemble the eight-section reproducibility manifest from a finished
    experiment; metric options, tuning and the execution mode are read from
    the effective configuration. It digests the run log of each (label,
    instance) key of `grouped_records`, and no other file in `out_dir`."""
    out_dir = Path(out_dir)
    T = plan.budget.wall_time_limit
    completed: dict[str, float] = {}
    total_runs: dict[str, float] = {}
    max_overshoot = 0.0
    max_step = 0.0
    for (label, instance_id), records in grouped_records.items():
        key = f"{label}/{instance_id}"
        n_completed = sum(
            1 for r in records if r.termination is not Termination.BUDGET_EXHAUSTED
        )
        completed[key] = n_completed / plan.repetitions
        total_runs[key] = len(records) / plan.repetitions
        by_rep: dict[int, float] = {}
        for r in records:
            by_rep[r.repetition] = by_rep.get(r.repetition, 0.0) + r.time_used
            max_step = max(max_step, r.max_step_seconds)
        for used in by_rep.values():
            max_overshoot = max(max_overshoot, used - T)
    max_overshoot = max(0.0, max_overshoot)

    metric_options = effective_config["metrics"]
    tuning = effective_config["tuning"]
    budget_section = {
        "wall_time_limit_seconds": T,
        "eval_cap": plan.budget.eval_cap,
        "clock_mode": plan.clock.mode,
        "max_overshoot_seconds": max_overshoot,
        "max_step_seconds": max_step,
    }
    if plan.clock.is_virtual:
        budget_section["cost_per_eval"] = plan.clock.cost_per_eval
        budget_section["synthetic_overhead"] = {
            spec.label: plan.run_clock(spec).step_overhead for spec in plan.algorithms
        }
        budget_section["clock_scheme"] = CLOCK_SCHEME_ID
    if plan.targets is not None:
        targets_section = {
            "kind": plan.targets.kind,
            "values": list(plan.targets.values),
            "success_rule": "best_f <= q (non-strict)",
            "early_success": "run ends when the hardest target is reached",
        }
    else:
        targets_section = _na("no targets configured")
    log_digests = {}
    for path in sorted(run_log_path(out_dir, *key) for key in grouped_records):
        log_digests[str(path.relative_to(out_dir))] = sha256_file(path)
    git_commit = _git_commit()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "checklist": {
            "budget": budget_section,
            "restart_policy": {
                "policy": (
                    "unlimited independent restarts within the time budget; "
                    "fresh derived seed per run; truncated final runs are kept"
                ),
                "average_completed_runs": completed,
                "average_total_runs": total_runs,
            },
            "targets": targets_section,
            "metrics": {
                "produced": [
                    "ert",
                    "time_to_target",
                    "anytime_ecdf",
                    "median_trajectory",
                    "performance_profile",
                ],
                "time_grid": {
                    "points": metric_options["time_grid_points"],
                    "spacing": "logarithmic from T/1000 to T",
                },
                "profile_cost": "ERT per target; all-failed instances excluded",
            },
            "statistics": {
                "master_seed": plan.master_seed,
                "seed_scheme": SEED_SCHEME_ID,
                "repetitions": plan.repetitions,
                "bootstrap": {
                    "method": "percentile",
                    "samples": metric_options["bootstrap_samples"],
                    "confidence": metric_options["confidence"],
                },
                "nonparametric_test": (
                    "two-sided Mann-Whitney U (exact enumeration for pooled n <= 20, "
                    "tie-corrected normal approximation otherwise)"
                ),
            },
            "environment": {
                **probe_environment(plan.clock.is_virtual),
                "execution": (
                    "parallel (virtual clock)" if effective_config["parallel"] else "sequential"
                ),
                "harness_bookkeeping": (
                    "timer covers algorithm iterations only; logging happens "
                    "between runs and is excluded from time_used"
                ),
            },
            "tuning": tuning if tuning is not None else _na("no tuning performed"),
            "artifacts": {
                "config_hash": config_hash(effective_config),
                "config_file": EFFECTIVE_CONFIG_NAME,
                "code_version": f"timefair {__version__}",
                "git_commit": git_commit if git_commit else _na("not run from a git checkout"),
                "log_digests": log_digests,
            },
        },
    }
    return manifest


def write_manifest(manifest: dict, out_dir: Path) -> Path:
    path = Path(out_dir) / MANIFEST_NAME
    with _atomic_open(path) as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path


def write_effective_config(config: dict, out_dir: Path) -> None:
    with _atomic_open(Path(out_dir) / EFFECTIVE_CONFIG_NAME) as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ChecklistItem:
    number: int
    name: str
    status: str  # PASS | NA | FAIL
    note: str = ""


def _audit_artifacts(section: dict, out_dir: Optional[Path]) -> Optional[str]:
    """Returns a failure note, or None if the artifact pointers hold up
    and `log_digests` lists exactly the run logs under `out_dir`."""
    for key in ("config_hash", "code_version", "log_digests"):
        if key not in section:
            return f"missing field {key!r}"
    if out_dir is None:
        return None
    config_path = Path(out_dir) / section.get("config_file", EFFECTIVE_CONFIG_NAME)
    if config_path.exists():
        with open(config_path, encoding="utf-8") as fh:
            if config_hash(json.load(fh)) != section["config_hash"]:
                return "config_hash does not match the stored effective config"
    else:
        return f"effective config {config_path.name} is missing"
    listed, on_disk = set(section["log_digests"]), set(run_logs_on_disk(out_dir))
    if listed - on_disk:
        return f"log file {min(listed - on_disk)} is missing"
    if on_disk - listed:
        return f"run log(s) not in log_digests: {', '.join(sorted(on_disk - listed))}"
    for rel, digest in section["log_digests"].items():
        if sha256_file(Path(out_dir) / rel) != digest:
            return f"log digest mismatch for {rel}"
    return None


def audit_manifest(manifest: dict, out_dir: Optional[Path] = None) -> list[ChecklistItem]:
    """Check the eight checklist items; every item is PASS, justified NA,
    or FAIL with a note. Integrity checks (item 8) recompute digests when
    the output directory is available."""
    checklist = manifest.get("checklist", {})
    required_fields = {
        "budget": ("wall_time_limit_seconds", "clock_mode"),
        "restart_policy": ("policy", "average_completed_runs"),
        "targets": ("kind", "values", "success_rule"),
        "metrics": ("produced",),
        "statistics": ("master_seed", "seed_scheme", "repetitions"),
        "environment": ("timer", "os", "python"),
        "tuning": (),
        "artifacts": (),
    }
    items = []
    for number, name, key in CHECKLIST_ITEMS:
        section = checklist.get(key)
        if section is None:
            items.append(ChecklistItem(number, name, "FAIL", f"section {key!r} missing"))
            continue
        if _is_na(section):
            reason = section.get("reason", "")
            if reason:
                items.append(ChecklistItem(number, name, "NA", reason))
            else:
                items.append(ChecklistItem(number, name, "FAIL", "NA without a reason"))
            continue
        if key == "artifacts":
            note = _audit_artifacts(section, out_dir)
            if note is None:
                items.append(ChecklistItem(number, name, "PASS"))
            else:
                items.append(ChecklistItem(number, name, "FAIL", note))
            continue
        missing = [f for f in required_fields[key] if f not in section]
        if missing:
            items.append(
                ChecklistItem(number, name, "FAIL", f"missing field(s): {', '.join(missing)}")
            )
        elif key == "budget" and not (
            isinstance(section.get("wall_time_limit_seconds"), (int, float))
            and section["wall_time_limit_seconds"] > 0
            and math.isfinite(section["wall_time_limit_seconds"])
        ):
            items.append(ChecklistItem(number, name, "FAIL", "wall_time_limit must be > 0"))
        else:
            items.append(ChecklistItem(number, name, "PASS"))
    return items


def manifest_verdict(items: Sequence[ChecklistItem]) -> str:
    if any(item.status == "FAIL" for item in items):
        return "FAIL"
    if any(item.status == "NA" for item in items):
        return "PASS-with-note"
    return "PASS"
