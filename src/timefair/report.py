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
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .clock import CLOCK_SCHEME_ID
from .core import ErtResult, RunRecord, Termination, validate
from .metrics import RUN_FIELDS, TUNING_AMORTIZATION, EcdfCurve, MedianCurve, ProfileCurve, RunColumns
from .seeds import SEED_SCHEME_ID


class LogParseError(RuntimeError):
    """The first issue of a run directory or of a run log, which aborts
    ``analyze --strict-logs``."""


MANIFEST_SCHEMA = "timefair-manifest/v1"
MANIFEST_NAME = "manifest.json"
EFFECTIVE_CONFIG_NAME = "effective_config.json"

# (item number, checklist name, manifest section key, required fields):
# the one definition of the reporting checklist that the audit walks
CHECKLIST_ITEMS = (
    (1, "budget specification", "budget", ("wall_time_limit_seconds", "clock_mode")),
    (2, "restart policies", "restart_policy", ("policy", "average_completed_runs")),
    (3, "target definitions", "targets", ("kind", "values", "success_rule")),
    (4, "performance metrics", "metrics", ("produced",)),
    (5, "statistical rigor", "statistics", ("master_seed", "seed_scheme", "repetitions")),
    (6, "computational environment", "environment", ("timer", "os", "python")),
    (7, "tuning overhead", "tuning", ()),
    (8, "reproducibility artifacts", "artifacts", ("config_hash", "code_version", "log_digests")),
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


def _json(value) -> str:
    """`value` as ``json.dumps(value, allow_nan=False, separators=(",", ":"))``
    writes it. Strings, ints and finite floats are formatted as ``json``
    formats them; anything else goes through ``json.dumps``, which also
    raises its errors (``ValueError`` for inf or NaN, ``TypeError`` for an
    unsupported type)."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
    elif kind is int:
        return int.__repr__(value)
    elif kind is str:
        return encode_basestring_ascii(value)
    return json.dumps(value, allow_nan=False, separators=(",", ":"))


def write_run_log(
    records: Iterable[RunRecord],
    path: Path,
    params: Optional[dict] = None,
) -> None:
    """Write one JSONL log atomically, one write call per line; an error
    propagates so the experiment aborts visibly.

    Each line is the compact ``json.dumps`` of its object, formatted field
    by field, so a field that ``json`` rejects raises the same error, at the
    same line. `params` is formatted once, at the first header.
    """
    header_end = "}\n" if params is None else None
    with _atomic_open(path) as fh:
        for record in records:
            header = (
                f'{{"kind":"run_header","algorithm_id":{_json(record.algorithm_id)},'
                f'"instance_id":{_json(record.instance_id)},"seed":{_json(record.seed)},'
                f'"repetition":{_json(record.repetition)},"run_index":{_json(record.run_index)}'
            )
            if header_end is None:
                header_end = f',"params":{_json(params)}}}\n'
            fh.write(header + header_end)
            for elapsed, evals, best_f in zip(record.elapsed, record.evals, record.best_f):
                fh.write(
                    f'{{"kind":"improvement","elapsed":{_json(elapsed)},'
                    f'"evals":{_json(evals)},"best_f":{_json(best_f)}}}\n'
                )
            fh.write(
                f'{{"kind":"run_end","termination":{_json(record.termination.value)},'
                f'"time_used":{_json(record.time_used)},"evals_used":{_json(record.evals_used)},'
                f'"n_clamped":{_json(record.n_clamped)},'
                f'"max_step_seconds":{_json(record.max_step_seconds)}}}\n'
            )


@dataclass(eq=False)
class ParseResult:
    """A run log read back: its valid runs in log order, as the pair's
    :class:`metrics.RunColumns`, one message per issue, in line order, and
    the number of runs the issues cost."""

    columns: RunColumns
    issues: list[str]
    skipped_runs: int


def _integer(value) -> int:
    """A JSON integer as ``json.loads`` returns it; a bool, float or string raises."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def _number(value) -> float:
    """A JSON number as a float; a bool or string raises."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _string(value) -> str:
    """A JSON string, interned: a log repeats its ids in every run's header."""
    if type(value) is not str:
        raise TypeError(f"not a string: {value!r}")
    return sys.intern(value)


_scan_once = json.JSONDecoder().scan_once  # the C scanner that json.loads ends in
_BLANK = object()  # what _decode_line gives for a line of JSON whitespace alone
_TERMINATIONS = {t.value: t for t in Termination}  # an unknown name raises KeyError, a list TypeError


def _decode_line(line: str):
    """``json.loads(line)``, or ``_BLANK`` for a line of JSON whitespace
    alone (space, tab, CR, LF). One C call decodes an ASCII line that is
    one JSON value from its first character to its final newline; any other
    line, and every error, is ``json.loads``' own, except that a line that
    held a byte that is not UTF-8 raises ``UnicodeEncodeError`` (a
    ValueError)."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line) - 1 and line[end] == "\n" and line.isascii():
            return obj
    except StopIteration:
        pass
    if not line.strip(" \t\r\n"):
        return _BLANK
    line.encode()  # the file is read with surrogateescape: a byte that is not UTF-8 is a lone surrogate
    return json.loads(line)


def parse_run_log(path: Path) -> ParseResult:
    """Read a JSONL log back into the columns of its validated runs.

    A line is accepted exactly when it is UTF-8 and ``json.loads`` accepts
    it, and decodes to the same object; a line of JSON whitespace alone is
    skipped. The whole log is read and no issue raises: each malformed line
    and invariant violation is reported with its line number, in line order,
    and the run it affects is skipped and counted. Each run's points are
    checked and kept as plain lists, and no RunRecord is built.
    """
    issues: list[str] = []
    skipped_runs = 0
    # the valid runs: points per run, every point's fields, and each run's other fields by name
    lengths, elapsed, evals, best_f = [], [], [], []
    runs: dict[str, list] = {name: [] for name in RUN_FIELDS}
    header: Optional[dict] = None
    header_line = 0
    run_elapsed, run_evals, run_best_f = [], [], []  # the open run's points
    run_broken = False

    def run_name(h: dict) -> str:
        return (
            f"{h.get('algorithm_id')}/{h.get('instance_id')} "
            f"rep={h.get('repetition')} run={h.get('run_index')}"
        )

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = _decode_line(line)
                if obj is _BLANK:
                    continue
                kind = obj["kind"]
            # ValueError: not JSON, not UTF-8, or an integer of more than 4,300 digits
            except (ValueError, RecursionError, KeyError, TypeError):
                issues.append(f"line {lineno}: malformed log line")
                run_broken = header is not None
                continue
            if kind == "run_header":
                if header is not None:
                    issues.append(f"line {header_line}: run_end missing for run {run_name(header)}")
                    skipped_runs += 1
                header, header_line, run_broken = obj, lineno, False
                run_elapsed, run_evals, run_best_f = [], [], []
            elif kind == "improvement":
                if header is None:
                    issues.append(f"line {lineno}: improvement outside of a run")
                    continue
                try:
                    t, n, f = _number(obj["elapsed"]), _integer(obj["evals"]), _number(obj["best_f"])
                except (KeyError, TypeError, OverflowError):
                    issues.append(f"line {lineno}: malformed improvement in run {run_name(header)}")
                    run_broken = True
                    continue
                run_elapsed.append(t)
                run_evals.append(n)
                run_best_f.append(f)
            elif kind == "run_end":
                if header is None:
                    issues.append(f"line {lineno}: run_end outside of a run")
                    continue
                if run_broken:
                    skipped_runs += 1
                    header = None
                    continue
                try:  # each of RUN_FIELDS, from the run's header or its run_end
                    run = dict(
                        algorithm_id=_string(header["algorithm_id"]), instance_id=_string(header["instance_id"]),
                        seed=_integer(header["seed"]), repetition=_integer(header["repetition"]),
                        run_index=_integer(header["run_index"]), termination=_TERMINATIONS[obj["termination"]],
                        time_used=_number(obj["time_used"]), evals_used=_integer(obj["evals_used"]),
                        n_clamped=_integer(obj["n_clamped"]), max_step_seconds=_number(obj["max_step_seconds"]),
                    )
                except (KeyError, TypeError, ValueError, OverflowError):
                    issues.append(f"line {lineno}: malformed run_end for run {run_name(header)}")
                    skipped_runs += 1
                    header = None
                    continue
                violations = validate(run_elapsed, run_evals, run_best_f,
                                      run["time_used"], run["evals_used"], run["max_step_seconds"])
                if violations:
                    issues.append(f"line {lineno}: invalid run {run_name(header)}: " + "; ".join(violations))
                    skipped_runs += 1
                else:
                    lengths.append(len(run_elapsed))
                    elapsed += run_elapsed
                    evals += run_evals
                    best_f += run_best_f
                    for name, value in run.items():
                        runs[name].append(value)
                header = None
            else:
                issues.append(f"line {lineno}: unknown record kind {kind!r}")
        if header is not None:
            issues.append(f"line {header_line}: run_end missing for run {run_name(header)}")
            skipped_runs += 1
    columns = RunColumns.of_lists(lengths, elapsed=elapsed, evals=evals, best_f=best_f, **runs)
    return ParseResult(columns, issues, skipped_runs)


def _time_spent(columns: RunColumns) -> dict[int, float]:
    """Each repetition's time: its runs' time_used, summed in run order as
    the runner sums them."""
    spent: dict[int, float] = {}
    for repetition, used in zip(columns.repetition, columns.time_used):
        spent[repetition] = spent.get(repetition, 0.0) + used
    return spent


def log_issues(columns: RunColumns, label: str, instance_id: str, plan) -> list[str]:
    """The issues of the valid runs of `label`'s log on `instance_id`, its
    parsed `columns`, taken together against `plan`: first those of each
    run, in run order, then each repetition's budget, then the set of
    repetitions. `run` writes only that pair's runs, in increasing
    (repetition, run_index) order, and at least one run for each
    repetition 0..R-1; a gap that a skipped run left is not an issue. A
    repetition's time (:func:`_time_spent`) is at most T on the virtual
    clock; on the real clock it is at most T plus its last run's
    max_step_seconds, the one iteration that may overshoot, unless that
    run evaluated nothing (the repetition's only run, whose `init`
    outlasted T)."""
    issues: list[str] = []
    last = None  # the previous valid run's (repetition, run_index)
    runs = zip(columns.algorithm_id, columns.instance_id, columns.repetition, columns.run_index)
    for algorithm_id, run_instance_id, repetition, run_index in runs:
        if (algorithm_id, run_instance_id) != (label, instance_id):
            issues.append(f"run {algorithm_id}/{run_instance_id} rep={repetition} run={run_index} "
                          f"is not a run of {label}/{instance_id}")
        if last is not None and (repetition, run_index) <= last:
            issues.append(f"runs out of order: rep={repetition} run={run_index} after rep={last[0]} run={last[1]}")
        last = repetition, run_index
    T, virtual = plan.budget.wall_time_limit, plan.clock.is_virtual
    last_run = {repetition: k for k, repetition in enumerate(columns.repetition)}
    for repetition, used in _time_spent(columns).items():
        k = last_run[repetition]
        max_step = columns.max_step_seconds[k]
        if virtual and used > T:
            issues.append(f"over budget: rep={repetition} spent {used!r} s, more than T={T!r} s")
        elif not virtual and columns.evals_used[k] > 0 and used > T + max_step:
            issues.append(f"over budget: rep={repetition} spent {used!r} s, more than T={T!r} s "
                          f"plus its last run's max_step_seconds {max_step!r} s")
    found, expected = set(columns.repetition), set(range(plan.repetitions))
    if found != expected:
        issues.append(f"incomplete log: repetitions missing {sorted(expected - found)}, "
                      f"unexpected {sorted(found - expected)}")
    return issues


def run_dir_issues(out_dir: Path, plan) -> list[str]:
    """The issues of `out_dir` against `plan`. If ``manifest.json`` is
    missing or unreadable, or item 8's config rule fails on it, that issue
    comes first, naming the manifest: the plan was read from the stored
    effective config. Then, each naming its log as
    ``runs/<label>/<instance>.jsonl``, every planned log that is missing, in
    plan order, then every log on disk that no planned (label, instance)
    pair writes, in path order."""
    note = _manifest_issue(out_dir)
    issues = [] if note is None else [f"{MANIFEST_NAME}: {note}"]
    planned = [
        str(run_log_path(out_dir, spec.label, instance_id).relative_to(out_dir))
        for spec in plan.algorithms
        for instance_id in plan.instances
    ]
    on_disk = run_logs_on_disk(out_dir)
    return issues + [f"{name}: missing run log" for name in planned if name not in on_disk] + [
        f"{name}: stray run log: the plan has no such (algorithm, instance) pair"
        for name in on_disk
        if name not in planned
    ]


def _manifest_issue(out_dir: Path) -> Optional[str]:
    """A note on `out_dir`'s manifest, or None if it holds a ``config_hash``
    that is the stored effective config's (item 8's config rule)."""
    try:
        with open(out_dir / MANIFEST_NAME, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return "missing (run writes it last, so the run did not finish)"
    except OSError as exc:
        return f"cannot be read: {exc.strerror}"
    except ValueError as exc:  # not JSON, or not UTF-8
        return f"not valid JSON: {exc}"
    try:
        recorded = manifest["checklist"]["artifacts"]["config_hash"]
    except (KeyError, TypeError):  # a missing key, or a section that is not an object
        return "holds no checklist.artifacts.config_hash"
    return _stored_config_issue(out_dir, recorded)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """csv writes a float as its repr (exact round trip), anything else as str."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    physical_id, cores = None, set()  # distinct (physical id, core id) pairs
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key, value = key.strip().lower(), value.strip()
                if key == "model name" and cpu_model is None:
                    cpu_model = value
                elif key == "physical id":
                    physical_id = value
                elif key == "core id":
                    cores.add((physical_id, value))
    except OSError:
        pass
    if cpu_model is None:
        cpu_model = platform.processor() or None
    env["cpu_model"] = cpu_model if cpu_model else _na("could not determine CPU model")
    env["physical_cores"] = len(cores) if cores else _na("no core ids in /proc/cpuinfo")
    logical = os.cpu_count()
    env["logical_cores"] = logical if logical else _na("os.cpu_count() is unknown")
    try:
        env["memory_gb"] = round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2)
    except (AttributeError, ValueError, OSError):
        env["memory_gb"] = _na("os.sysconf lacks SC_PAGE_SIZE or SC_PHYS_PAGES")
    env["optimization_flags"] = _na("interpreted Python; no build flags recorded")
    return env


def _git_commit() -> Optional[str]:
    """HEAD of the checkout that holds this code (the directory above
    ``src/``), or None when that directory is not a git work tree's top,
    whatever directory the command runs in."""
    checkout = Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout:
        return None
    return lines[1]


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
    max_overshoot = max_step = 0.0
    for (label, instance_id), records in grouped_records.items():
        key = f"{label}/{instance_id}"
        runs = RunColumns.of(records)
        completed[key] = sum(t is not Termination.BUDGET_EXHAUSTED for t in runs.termination) / plan.repetitions
        total_runs[key] = runs.runs / plan.repetitions
        max_step = max([max_step, *runs.max_step_seconds])
        max_overshoot = max([max_overshoot, *(used - T for used in _time_spent(runs).values())])

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
            spec.label: spec.step_overhead for spec in plan.algorithms
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
                # without targets, analyze writes the median curves only
                "produced": (
                    ["ert", "time_to_target", "anytime_ecdf", "median_trajectory", "performance_profile"]
                    if plan.targets is not None
                    else ["median_trajectory"]
                ),
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
                "nonparametric_test": _na("no artifact of run or analyze holds a test result"),
            },
            "environment": {
                **probe_environment(plan.clock.is_virtual),
                "execution": (
                    "parallel (virtual clock)" if effective_config["parallel"] else "sequential"
                ),
                "harness_bookkeeping": (
                    "no timer runs: virtual time is charged from evaluation and "
                    "iteration counts (see budget.clock_scheme); logging happens "
                    "between runs and is excluded from time_used"
                    if plan.clock.is_virtual
                    else "timer runs from each run's start to its end, so time_used also "
                    "covers the runner's stopping check between iterations and the "
                    "evaluator's bookkeeping on each call (shape check, bounds check, "
                    "clip and clamp count, FE count, improvement scan and stamp); "
                    "logging happens between runs and is excluded from time_used"
                ),
            },
            "tuning": (
                {**tuning, "amortization": TUNING_AMORTIZATION}
                if tuning is not None
                else _na("no tuning performed")
            ),
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
        json.dump(config, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


@dataclass(frozen=True)
class ChecklistItem:
    number: int
    name: str
    status: str  # PASS | NA | FAIL
    note: str = ""


def _stored_config_issue(out_dir: Path, recorded_hash) -> Optional[str]:
    """Item 8's config rule, which `report` and `analyze` both apply: a
    failure note, or None if `out_dir`'s effective config is JSON whose
    `config_hash` equals `recorded_hash`, the manifest's."""
    try:
        with open(out_dir / EFFECTIVE_CONFIG_NAME, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        return f"effective config {EFFECTIVE_CONFIG_NAME} is missing"
    except OSError as exc:
        return f"effective config {EFFECTIVE_CONFIG_NAME} cannot be read: {exc.strerror}"
    except ValueError as exc:  # not JSON, or not UTF-8
        return f"effective config {EFFECTIVE_CONFIG_NAME} is not valid JSON: {exc}"
    if config_hash(stored) != recorded_hash:
        return "config_hash does not match the stored effective config"
    return None


def _audit_artifacts(section: dict, out_dir: Path) -> Optional[str]:
    """Returns a failure note, or None if `out_dir`'s own effective config
    matches `config_hash` and `log_digests` lists exactly the run logs
    under `out_dir`, each with its digest."""
    note = _stored_config_issue(out_dir, section["config_hash"])
    if note is not None:
        return note
    if not isinstance(section["log_digests"], dict):
        return "log_digests is not a JSON object"
    listed, on_disk = set(section["log_digests"]), set(run_logs_on_disk(out_dir))
    if listed - on_disk:
        return f"log file {min(listed - on_disk)} is missing"
    if on_disk - listed:
        return f"run log(s) not in log_digests: {', '.join(sorted(on_disk - listed))}"
    for rel, digest in section["log_digests"].items():
        try:
            if sha256_file(out_dir / rel) != digest:
                return f"log digest mismatch for {rel}"
        except OSError as exc:
            return f"log file {rel} cannot be read: {exc.strerror}"
    return None


def _audit_section(key: str, section, fields: tuple, out_dir: Path) -> tuple[str, str]:
    """(status, note) of one checklist section."""
    if section is None:
        return "FAIL", f"section {key!r} missing"
    if not isinstance(section, dict):
        return "FAIL", f"section {key!r} is not a JSON object"
    if section.get("status") == "NA":
        reason = section.get("reason", "")
        return ("NA", reason) if reason else ("FAIL", "NA without a reason")
    missing = [f for f in fields if f not in section]
    if missing:
        return "FAIL", f"missing field(s): {', '.join(missing)}"
    if key == "budget":
        try:
            T = _number(section["wall_time_limit_seconds"])
        except (TypeError, OverflowError):  # a bool, a string, null, or an integer past float range
            T = math.nan
        if not (T > 0 and math.isfinite(T)):
            return "FAIL", "wall_time_limit must be > 0"
    note = _audit_artifacts(section, out_dir) if key == "artifacts" else None
    return ("PASS", "") if note is None else ("FAIL", note)


def audit_manifest(manifest: dict, out_dir: Path) -> list[ChecklistItem]:
    """Check the eight checklist items of :data:`CHECKLIST_ITEMS`; every
    item is PASS, justified NA, or FAIL with a note. Item 8 reads only the
    files of `out_dir` (`effective_config.json` and `runs/*/*.jsonl`)."""
    checklist = manifest.get("checklist", {})
    if not isinstance(checklist, dict):
        return [
            ChecklistItem(number, name, "FAIL", f"section {key!r}: checklist is not a JSON object")
            for number, name, key, _ in CHECKLIST_ITEMS
        ]
    return [
        ChecklistItem(number, name, *_audit_section(key, checklist.get(key), fields, Path(out_dir)))
        for number, name, key, fields in CHECKLIST_ITEMS
    ]


def manifest_verdict(items: Sequence[ChecklistItem]) -> str:
    if any(item.status == "FAIL" for item in items):
        return "FAIL"
    if any(item.status == "NA" for item in items):
        return "PASS-with-note"
    return "PASS"
