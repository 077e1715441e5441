"""The run-log parser that built one RunRecord per run, kept as the oracle
that ``report.parse_run_log`` is checked against.

It reads a log line by line, keeps an (elapsed, evals, best_f) point per
improvement, builds a RunRecord per run from its points, and checks each
record with ``core.validate``. Two behaviours differ from
``report.parse_run_log`` on purpose: a byte that is not UTF-8 raises
``UnicodeDecodeError`` here, and a line that ``str.strip`` empties (such
as ``"\\x0c"`` or ``"\\u2028"``) is skipped here as blank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from timefair.core import RunRecord, Termination, validate
from timefair.report import LogParseError

from conftest import columns, run_values


@dataclass
class ReferenceResult:
    records: list[RunRecord]
    issues: list[str]
    skipped_runs: int


def _integer(value) -> int:
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def _number(value) -> float:
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _string(value) -> str:
    if type(value) is not str:
        raise TypeError(f"not a string: {value!r}")
    return value


def reference_parse_run_log(path: Path, strict: bool = False) -> ReferenceResult:
    path = Path(path)
    result = ReferenceResult(records=[], issues=[], skipped_runs=0)

    def issue(msg: str) -> None:
        result.issues.append(msg)
        if strict:
            raise LogParseError(f"{path}: {msg}")

    header: Optional[dict] = None
    header_line = 0
    points: list[tuple] = []
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
            except (ValueError, RecursionError, KeyError, TypeError):
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
                    points.append((_number(obj["elapsed"]), _integer(obj["evals"]), _number(obj["best_f"])))
                except (KeyError, TypeError, OverflowError):
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
                        algorithm_id=_string(header["algorithm_id"]),
                        instance_id=_string(header["instance_id"]),
                        seed=_integer(header["seed"]),
                        **columns(points),
                        time_used=_number(obj["time_used"]),
                        evals_used=_integer(obj["evals_used"]),
                        termination=Termination(obj["termination"]),
                        repetition=_integer(header["repetition"]),
                        run_index=_integer(header["run_index"]),
                        n_clamped=_integer(obj["n_clamped"]),
                        max_step_seconds=_number(obj["max_step_seconds"]),
                    )
                except (KeyError, TypeError, ValueError, OverflowError):
                    issue(f"line {lineno}: malformed run_end for run {run_name(header)}")
                    result.skipped_runs += 1
                    header = None
                    continue
                violations = validate(*run_values(record))
                if violations:
                    issue(f"line {lineno}: invalid run {run_name(header)}: " + "; ".join(violations))
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
