import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import timefair
from timefair import report
from timefair.clock import CLOCK_SCHEME_ID
from timefair.core import CostMatrix, ErtResult, RunRecord, Termination
from timefair.metrics import (
    EcdfCurve,
    MedianCurve,
    RunColumns,
    anytime_ecdf,
    default_time_grid,
    ert,
    first_hits,
    median_trajectory,
    performance_profile,
)
from timefair.report import (
    audit_manifest,
    build_manifest,
    config_hash,
    emit_ecdf_csv,
    emit_ert_table,
    emit_median_csv,
    emit_profile_csv,
    log_issues,
    manifest_verdict,
    parse_run_log,
    probe_environment,
    sha256_file,
    write_run_log,
)

from conftest import assert_same_columns, columns, pair_times, random_record, time_to_target


class TestRoundTrip:
    def test_parse_inverts_write(self, rng, tmp_path):
        records = [random_record(rng) for _ in range(100)]
        path = tmp_path / "log.jsonl"
        write_run_log(records, path, params={"kind": "demo", "p": 0.5})
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of(records))
        assert result.issues == [] and result.skipped_runs == 0

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, tmp_path_factory, seed):
        # one record written three times parses back to three equal runs
        records = [random_record(np.random.default_rng(seed)) for _ in range(3)]
        path = tmp_path_factory.mktemp("rt") / "log.jsonl"
        write_run_log(records, path)
        assert_same_columns(parse_run_log(path).columns, RunColumns.of(records))

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=6))
    def test_the_parser_and_of_fill_one_form(self, tmp_path_factory, seed, n):
        # a log's parsed columns are RunColumns.of the records written to it,
        # field by field: u64 seeds, empty runs and every termination
        rng = np.random.default_rng(seed)
        records = [random_record(rng) for _ in range(n)]
        path = tmp_path_factory.mktemp("columns") / "log.jsonl"
        write_run_log(records, path)
        assert_same_columns(parse_run_log(path).columns, RunColumns.of(records))

    def test_a_valid_run_keeps_integers_of_any_size(self, tmp_path):
        # the writer never writes these, but a valid log may hold any JSON integer
        record = RunRecord("a", "sphere-d2", 2**64 + 1, **columns([(0.5, 2**69, 3.0)]), time_used=1.0,
                           evals_used=2**70, termination=Termination.INTERNAL_STOP, repetition=2**80,
                           run_index=2**63, n_clamped=-(2**66))
        path = tmp_path / "log.jsonl"
        write_run_log([record], path)
        parsed = parse_run_log(path)
        assert parsed.issues == []
        assert (parsed.columns.seed, parsed.columns.evals_used, parsed.columns.evals) == ([2**64 + 1], [2**70], [2**69])
        assert_same_columns(parsed.columns, RunColumns.of([record]))

    @pytest.mark.parametrize("field", ["time_used", "max_step_seconds"])
    def test_a_negative_zero_keeps_its_sign(self, tmp_path, field):
        # a valid log may hold -0.0; the column check compares a list's floats by their bits
        zero = RunRecord("a", "sphere-d2", 1, **columns([]), time_used=0.0, evals_used=0,
                         termination=Termination.BUDGET_EXHAUSTED, max_step_seconds=0.0)
        record = dataclasses.replace(zero, **{field: -0.0})
        path = tmp_path / "log.jsonl"
        write_run_log([record], path)
        parsed = parse_run_log(path)
        assert parsed.issues == [] and math.copysign(1.0, getattr(parsed.columns, field)[0]) == -1.0
        assert_same_columns(parsed.columns, RunColumns.of([record]))
        with pytest.raises(AssertionError):
            assert_same_columns(parsed.columns, RunColumns.of([zero]))

    def test_empty_run_is_header_and_end_only(self, tmp_path):
        record = RunRecord(
            algorithm_id="a",
            instance_id="sphere-d2",
            seed=3,
            elapsed=(),
            evals=(),
            best_f=(),
            time_used=0.0,
            evals_used=0,
            termination=Termination.BUDGET_EXHAUSTED,
        )
        path = tmp_path / "log.jsonl"
        write_run_log([record], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "run_header"
        assert json.loads(lines[1])["kind"] == "run_end"
        assert_same_columns(parse_run_log(path).columns, RunColumns.of([record]))

    def test_failed_write_leaves_no_half_written_log(self, rng, tmp_path):
        # NaN is not JSON (allow_nan=False): the write fails on the third run
        records = [random_record(rng) for _ in range(3)]
        broken = [*records[:2], dataclasses.replace(records[2], time_used=math.nan)]
        path = tmp_path / "runs" / "a" / "sphere-d2.jsonl"
        with pytest.raises(ValueError):
            write_run_log(broken, path)
        assert list(path.parent.iterdir()) == []
        write_run_log(records, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_run_log(broken, path)
        assert path.read_bytes() == before
        assert list(path.parent.iterdir()) == [path]

    def test_reaggregated_ert_is_identical(self, rng, tmp_path):
        records = [random_record(rng) for _ in range(200)]
        path = tmp_path / "log.jsonl"
        write_run_log(records, path)
        ladder = (60.0, 20.0, -5.0)
        reread = first_hits(parse_run_log(path).columns, ladder)
        T = 30.0
        for q, hits in zip(ladder, reread):
            assert ert([time_to_target(r, q) for r in records], T) == ert(hits, T)


def dump_line_oracle(obj: dict) -> str:
    return json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n"


def write_run_log_oracle(records, path, params=None):
    """The writer that formatted each line as a dict through ``json.dumps``."""
    with report._atomic_open(path) as fh:
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
            fh.write(dump_line_oracle(header))
            for elapsed, evals, best_f in zip(record.elapsed, record.evals, record.best_f):
                fh.write(
                    dump_line_oracle(
                        {
                            "kind": "improvement",
                            "elapsed": elapsed,
                            "evals": evals,
                            "best_f": best_f,
                        }
                    )
                )
            fh.write(
                dump_line_oracle(
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


def written(writer, records, params):
    """(text written, records pulled, (error type, message) or None) of one
    call of `writer`, with the text kept even when the write fails."""
    buffer = io.StringIO()
    pulled = 0

    def counted():
        nonlocal pulled
        for record in records:
            pulled += 1
            yield record

    error = None
    with mock.patch.object(report, "_atomic_open", lambda path: contextlib.nullcontext(buffer)):
        try:
            writer(counted(), "unused.jsonl", params)
        except (ValueError, TypeError) as exc:
            error = (type(exc), str(exc))
    return buffer.getvalue(), pulled, error


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308, -1e22)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ints = st.one_of(st.sampled_from((0, 2**53 + 1, 2**64 - 1, 10**40)), st.integers(min_value=0))
labels = st.one_of(st.sampled_from(("pso", "pso-héavy", "随机", "a\"b\\c\n", "\ud800")), st.text())
json_values = st.recursive(
    st.none() | st.booleans() | floats | ints | st.integers(max_value=-1) | labels,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(labels, children, max_size=3),
    max_leaves=8,
)
params_values = st.one_of(st.none(), st.just({}), st.dictionaries(labels, json_values, max_size=4))
records_strategy = st.builds(
    lambda points, **fields: RunRecord(**columns(points), **fields),
    points=st.lists(st.tuples(floats, ints, floats), max_size=4),
    algorithm_id=labels,
    instance_id=labels,
    seed=ints,
    time_used=floats,
    evals_used=ints,
    termination=st.sampled_from(list(Termination)),
    repetition=ints,
    run_index=ints,
    n_clamped=ints,
    max_step_seconds=floats,
)
record_lists = st.lists(records_strategy, max_size=4)

# a value json rejects, in each kind of field: the writer must raise what the
# oracle raises, after writing the same lines
BAD_VALUES = (math.nan, math.inf, -math.inf, np.int64(3), np.float32(0.5), object())
HEADER_FIELDS = ("algorithm_id", "instance_id", "seed", "repetition", "run_index")
END_FIELDS = ("time_used", "evals_used", "n_clamped", "max_step_seconds")
POINT_FIELDS = ("elapsed", "evals", "best_f")


class TestWriterOracle:
    @settings(max_examples=150, deadline=None)
    @given(record_lists, params_values)
    def test_lines_are_the_json_dumps_oracles(self, records, params):
        expected = written(write_run_log_oracle, records, params)
        assert expected[2] is None
        assert written(write_run_log, records, params) == expected

    def test_edge_values_match_the_oracle(self):
        elapsed = [float(i) for i in range(len(EDGE_FLOATS))]
        evals = [2**63 + i for i in range(len(EDGE_FLOATS))]
        record = RunRecord(
            "pso-héavy", "随机-d2", 10**40, elapsed, evals, EDGE_FLOATS, 1e16, 0, Termination.INTERNAL_STOP
        )
        for params in (None, {}, {"ñ": [5e-324, -0.0, None, True]}):
            for records in ([], [record], [record, record]):
                expected = written(write_run_log_oracle, records, params)
                assert written(write_run_log, records, params) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(records_strategy, min_size=1, max_size=3),
        params_values,
        st.data(),
        st.sampled_from(BAD_VALUES),
    )
    def test_rejected_value_raises_where_the_oracle_raises(self, records, params, data, bad):
        at = data.draw(st.integers(0, len(records) - 1))
        record = records[at]
        fields = HEADER_FIELDS + END_FIELDS + (("improvement",) if record.elapsed else ())
        field = data.draw(st.sampled_from(fields))
        if field == "improvement":
            k = data.draw(st.integers(0, len(record.elapsed) - 1))
            field = data.draw(st.sampled_from(POINT_FIELDS))
            column = getattr(record, field)
            value = column[:k] + (bad,) + column[k + 1 :]
        else:
            value = bad
        records[at] = dataclasses.replace(record, **{field: value})
        expected = written(write_run_log_oracle, records, params)
        assert expected[2][0] is (ValueError if isinstance(bad, float) else TypeError)
        assert written(write_run_log, records, params) == expected

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("n_records", [0, 1, 2])
    def test_rejected_params_raise_at_the_first_header(self, rng, bad, n_records):
        records = [random_record(rng) for _ in range(n_records)]
        params = {"kind": "pso", "p": bad}
        expected = written(write_run_log_oracle, records, params)
        error = ValueError if isinstance(bad, float) else TypeError
        assert (expected[2] is None) if n_records == 0 else (expected[2][0] is error)
        assert written(write_run_log, records, params) == expected


class TestParsing:
    def _write_valid(self, tmp_path, n=3):
        rng = np.random.default_rng(0)
        records = [random_record(rng) for _ in range(n)]
        path = tmp_path / "log.jsonl"
        write_run_log(records, path)
        return records, path

    def test_truncated_final_run_is_skipped_leniently(self, tmp_path):
        records, path = self._write_valid(tmp_path)
        content = path.read_text().splitlines()
        path.write_text("\n".join(content[:-1]) + "\n")  # drop the last run_end
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of(records[:-1]))
        assert result.skipped_runs == 1
        assert any("run_end missing" in msg for msg in result.issues)

    def test_every_issue_is_reported_in_line_order_and_none_raises(self, tmp_path):
        # the parser only reports; analyze alone decides whether an issue aborts
        records, path = self._write_valid(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1:1] = ["{not json\n"]  # inside the first run
        lines.append("garbage\n")
        path.write_text("".join(lines))
        result = parse_run_log(path)
        assert result.issues == ["line 2: malformed log line", f"line {len(lines)}: malformed log line"]
        assert_same_columns(result.columns, RunColumns.of(records[1:]))
        assert result.skipped_runs == 1
        assert list(inspect.signature(parse_run_log).parameters) == ["path"]

    @pytest.mark.parametrize(
        "kind, field",
        [("improvement", "best_f"), ("improvement", "elapsed"),
         ("run_end", "time_used"), ("run_end", "max_step_seconds")],
    )
    def test_non_finite_number_skips_the_run(self, tmp_path, kind, field):
        # the writer refuses NaN, but json.loads reads it back
        path = tmp_path / "log.jsonl"
        write_run_log([random_record(np.random.default_rng(0), allow_empty=False)], path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        next(obj for obj in lines if obj["kind"] == kind)[field] = math.nan
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of([]))
        assert result.skipped_runs == 1
        [message] = result.issues
        assert f"{field} non-finite" in message

    def test_out_of_order_improvements_name_the_run(self, tmp_path):
        lines = [
            json.dumps(
                {
                    "kind": "run_header",
                    "algorithm_id": "pso",
                    "instance_id": "sphere-d2",
                    "seed": 1,
                    "repetition": 0,
                    "run_index": 0,
                }
            ),
            json.dumps({"kind": "improvement", "elapsed": 2.0, "evals": 5, "best_f": 3.0}),
            json.dumps({"kind": "improvement", "elapsed": 1.0, "evals": 9, "best_f": 2.0}),
            json.dumps(
                {"kind": "run_end", "termination": "InternalStop", "time_used": 2.0, "evals_used": 9,
                 "n_clamped": 0, "max_step_seconds": 1.0}
            ),
        ]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of([]))
        assert result.skipped_runs == 1
        assert any("elapsed non-monotone" in msg and "pso/sphere-d2" in msg for msg in result.issues)

    def test_malformed_line_reports_line_number(self, tmp_path):
        records, path = self._write_valid(tmp_path, n=1)
        with open(path, "a") as fh:
            fh.write("garbage\n")
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of(records))
        n_lines = len(path.read_text().splitlines())
        assert any(f"line {n_lines}" in msg for msg in result.issues)

    # (lines between two valid runs, issue message at the first of them,
    # runs skipped); the message's line number n is the fragment's line n
    HEADER = ('{"kind":"run_header","algorithm_id":"x","instance_id":"sphere-d2","seed":1,'
              '"repetition":0,"run_index":0}')
    END = ('{"kind":"run_end","termination":"InternalStop","time_used":1.0,"evals_used":1,'
           '"n_clamped":0,"max_step_seconds":1.0}')
    ISSUE_CASES = {
        "run_end-missing": ([HEADER], "line {0}: run_end missing for run x/sphere-d2 rep=0 run=0", 1),
        "improvement-outside": (
            ['{"kind":"improvement","elapsed":1.0,"evals":1,"best_f":1.0}'],
            "line {0}: improvement outside of a run", 0,
        ),
        "malformed-improvement": (
            [HEADER, '{"kind":"improvement","elapsed":1.0,"best_f":1.0}', END],
            "line {1}: malformed improvement in run x/sphere-d2 rep=0 run=0", 1,
        ),
        "run_end-outside": ([END], "line {0}: run_end outside of a run", 0),
        "run_end-after-malformed-line": ([HEADER, "garbage", END], "line {1}: malformed log line", 1),
        "oversized-integer": (
            [HEADER, '{"kind":"improvement","elapsed":1.0,"evals":' + "9" * 4301 + ',"best_f":1.0}', END],
            "line {1}: malformed log line", 1,
        ),
        "deep-nesting": ([HEADER, "[" * 100_000, END], "line {1}: malformed log line", 1),
        "unknown-kind": (['{"kind":"note"}'], "line {0}: unknown record kind 'note'", 0),
        # bytes that are not UTF-8 (written through surrogateescape)
        "not-utf8-line": ([HEADER, "\udcff\udcfe garbage", END], "line {1}: malformed log line", 1),
        "not-utf8-in-a-string": (
            [HEADER, '{"kind":"improv\udcffement","elapsed":1.0,"evals":1,"best_f":1.0}', END],
            "line {1}: malformed log line", 1,
        ),
        # whitespace that str.strip() removes but json.loads rejects
        **{f"space-{ord(c):x}-between-runs": ([c], "line {0}: malformed log line", 0) for c in "\x0b\x0c\x1c\x1f\x85\u2028\u3000"},
        "space-0c-in-a-run": ([HEADER, "\x0c", END], "line {1}: malformed log line", 1),
        "space-2028-in-a-run": ([HEADER, "\u2028", END], "line {1}: malformed log line", 1),
    }

    @pytest.mark.parametrize("case", sorted(ISSUE_CASES))
    def test_issue_names_its_line_and_keeps_neighbouring_runs(self, tmp_path, case):
        fragment, message, skipped = self.ISSUE_CASES[case]
        records, path = self._write_valid(tmp_path, n=2)
        lines = path.read_text().splitlines()
        cut = max(i for i, line in enumerate(lines) if '"run_header"' in line)
        first, second = lines[:cut], lines[cut:]
        path.write_bytes(("\n".join([*first, *fragment, *second]) + "\n").encode("utf-8", "surrogateescape"))
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of(records))
        assert result.skipped_runs == skipped
        numbers = range(len(first) + 1, len(first) + len(fragment) + 1)
        assert result.issues == [message.format(*numbers)]

    # the last line of a valid log, a run_end, rewritten
    LINE_VARIANTS = {
        "leading-space": lambda line: " " + line,
        "leading-tab": lambda line: "\t" + line,
        "trailing-space": lambda line: line[:-1] + " \n",
        "bom": lambda line: "\ufeff" + line,
        "two-values": lambda line: "1,2\n",
        "two-objects": lambda line: line[:-1] + line,
        "no-final-newline": lambda line: line[:-1],
        "crlf": lambda line: line[:-1] + "\r\n",
    }

    @pytest.mark.parametrize("variant", sorted(LINE_VARIANTS))
    def test_a_line_is_accepted_exactly_when_json_loads_accepts_it(self, tmp_path, monkeypatch, variant):
        _, path = self._write_valid(tmp_path, n=2)
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = self.LINE_VARIANTS[variant](lines[-1])
        path.write_bytes("".join(lines).encode())  # binary, so "\r\n" is written as it is

        parsed = parse_run_log(path)
        monkeypatch.setattr(report, "_decode_line", json.loads)
        expected = parse_run_log(path)
        assert (parsed.issues, parsed.skipped_runs) == (expected.issues, expected.skipped_runs)
        assert_same_columns(parsed.columns, expected.columns)

    @pytest.mark.parametrize(
        "kind,field",
        [("run_header", "repetition"), ("run_header", "run_index"),
         ("run_end", "n_clamped"), ("run_end", "max_step_seconds")],
    )
    def test_missing_writer_field_is_a_malformed_run_end(self, tmp_path, kind, field):
        # a log lacking a field the writer always writes is not read with a
        # default (a missing repetition would merge repetitions)
        records, path = self._write_valid(tmp_path, n=1)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        next(obj for obj in lines if obj["kind"] == kind).pop(field)
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of([]))
        assert result.skipped_runs == 1
        [message] = result.issues
        assert message.startswith(f"line {len(lines)}: malformed run_end for run {records[0].algorithm_id}/")

    # the writer never writes these: int() and float() would read "7" as 7,
    # true as 1 and 2.9 as 2, and float() of a 401-digit integer overflows
    WRONG_TYPES = [
        ("run_header", "algorithm_id", 1), ("run_header", "instance_id", None),
        ("run_header", "seed", "7"), ("run_header", "repetition", 0.0),
        ("run_header", "run_index", True), ("improvement", "elapsed", "0.5"),
        ("improvement", "evals", 2.9), ("improvement", "best_f", True),
        ("improvement", "best_f", 10**400), ("run_end", "time_used", "1.0"),
        ("run_end", "evals_used", 3.99), ("run_end", "n_clamped", False),
        ("run_end", "max_step_seconds", True), ("run_end", "max_step_seconds", 10**400),
    ]

    @pytest.mark.parametrize(
        "kind, field, value", WRONG_TYPES, ids=[f"{f}={v if v != 10**400 else '10**400'}" for _, f, v in WRONG_TYPES]
    )
    def test_wrongly_typed_field_is_malformed(self, tmp_path, kind, field, value):
        path = tmp_path / "log.jsonl"
        write_run_log([random_record(np.random.default_rng(0), allow_empty=False)], path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lineno, obj = next((n, obj) for n, obj in enumerate(lines, 1) if obj["kind"] == kind)
        obj[field] = value
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of([]))
        assert result.skipped_runs == 1
        [message] = result.issues
        expected = (
            f"line {lineno}: malformed improvement" if kind == "improvement"
            else f"line {len(lines)}: malformed run_end"
        )
        assert message.startswith(expected)

    def test_a_line_of_json_whitespace_is_blank(self, tmp_path):
        records, path = self._write_valid(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        for at in (len(lines), 2, 0):
            lines[at:at] = ["\n", " \t \n", "\r\n", "\t"]
        path.write_bytes("".join(lines).encode())
        result = parse_run_log(path)
        assert_same_columns(result.columns, RunColumns.of(records))
        assert result.issues == [] and result.skipped_runs == 0


# raw JSON text a corruption writes for a value: tokens that json.loads
# reads as non-finite floats, bools, null and strings where numbers belong,
# an integer json.loads rejects (4,301 digits) and one float() overflows,
# numbers that break an invariant, and containers
TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e999", "true", "false", "null", '"1.0"', '"TargetReached"',
    "9" * 4301, "1" + "0" * 400, "-1", "0", "-0.0", "1", "2.5", "1e308", "5e-324", "[]", "{}", '"run_end"',
]
KINDS = ['"run_header"', '"improvement"', '"run_end"', '"note"', "1", "null"]
STRAY_LINES = [
    "garbage", "{not json", "[1, 2]", "1", '"kind"', "null", "{}", '{"kind": "note"}', '{"kind": 1}',
    "", " \t", "[" * 50, "[" * 100_000, '{"a": 1} {"b": 2}', '{"kind": "improvement"}',
]


def _pairs(line):
    """The (key, JSON text of the value) pairs of a line's object, or None."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return [(k, json.dumps(v)) for k, v in obj.items()] if isinstance(obj, dict) else None


def corrupt(lines, rng):
    """Apply one seeded corruption to `lines` (log lines without newlines)."""
    i = int(rng.integers(len(lines))) if lines else 0
    op = int(rng.integers(8)) if lines else 0
    pairs = _pairs(lines[i]) if lines else None
    if op == 0:  # a stray line, or a copy of another line, out of place
        pool = STRAY_LINES + lines
        lines.insert(i, pool[int(rng.integers(len(pool)))])
    elif op == 1:  # a missing line
        del lines[i]
    elif op == 2:  # a line moved elsewhere
        lines.insert(int(rng.integers(len(lines))), lines.pop(i))
    elif op == 3:  # a truncated line
        lines[i] = lines[i][: int(rng.integers(len(lines[i]) + 1))]
    elif pairs:
        k = int(rng.integers(len(pairs)))
        if op == 4:  # a value replaced
            pairs[k] = (pairs[k][0], TOKENS[int(rng.integers(len(TOKENS)))])
        elif op == 5:  # a duplicate key, before or after the original
            pairs.insert(int(rng.integers(len(pairs) + 1)), (pairs[k][0], TOKENS[int(rng.integers(len(TOKENS)))]))
        elif op == 6:  # a field dropped
            del pairs[k]
        else:  # another kind
            pairs = [("kind", KINDS[int(rng.integers(len(KINDS)))])] + [p for p in pairs if p[0] != "kind"]
        lines[i] = "{" + ",".join(f"{json.dumps(key)}:{value}" for key, value in pairs) + "}"


def _log_lines(records):
    """The log lines of `records` through ``json.dumps``, which also writes NaN and infinities."""
    lines = []
    for r in records:
        lines.append(json.dumps({"kind": "run_header", "algorithm_id": r.algorithm_id, "instance_id": r.instance_id,
                                 "seed": r.seed, "repetition": r.repetition, "run_index": r.run_index}))
        lines += [json.dumps({"kind": "improvement", "elapsed": t, "evals": n, "best_f": f})
                  for t, n, f in zip(r.elapsed, r.evals, r.best_f)]
        lines.append(json.dumps({"kind": "run_end", "termination": r.termination.value, "time_used": r.time_used,
                                 "evals_used": r.evals_used, "n_clamped": r.n_clamped,
                                 "max_step_seconds": r.max_step_seconds}))
    return lines


@pytest.fixture(scope="module")
def real_logs(tmp_path_factory):
    """The run logs of a small virtual experiment: PSO with stagnation restarts and random search."""
    from timefair.cli import demo_config, main

    out = tmp_path_factory.mktemp("real") / "out"
    cfg = demo_config()
    cfg.update(repetitions=2, instances=["sphere-d2", "rastrigin-d2"], output_dir=str(out))
    cfg["budget"]["wall_time_limit"] = 1.0
    cfg["algorithms"] = [
        {"label": "pso", "kind": "pso", "params": {"swarm_size": 4, "max_iterations": 16},
         "wrappers": {"stagnation_restart": {"plateau_window": 3, "plateau_epsilon": 1e-3}}},
        {"label": "random-search", "kind": "random-search", "params": {"max_iterations": 32}},
    ]
    config = out.parent / "config.json"
    config.write_text(json.dumps(cfg))
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(config)]) == 0
    return sorted(out.glob("runs/*/*.jsonl"))


BASE = RunRecord(
    algorithm_id="alg", instance_id="sphere-d2", seed=7,
    elapsed=(0.5, 1.0, 2.0), evals=(1, 4, 9), best_f=(9.0, 5.0, 1.0),
    time_used=2.5, evals_used=12, termination=Termination.INTERNAL_STOP, run_index=1, max_step_seconds=0.25,
)
NO_POINTS = dict(elapsed=(), evals=(), best_f=())


def _points(**changes):
    """BASE's columns with changes[name][i] replacing point i's value in column `name`."""
    return {name: tuple(values) + getattr(BASE, name)[len(values) :] for name, values in changes.items()}


# one way to break each rule of core.validate, as a change to BASE
RULE_BREAKS = {
    "empty trajectory with evals_used > 0": NO_POINTS,
    "first point evals < 1": _points(evals=[0]),
    "elapsed negative": _points(elapsed=[-0.5]),
    "elapsed non-monotone": _points(elapsed=[1.0, 0.5]),
    "evals non-monotone": _points(evals=[4, 1]),
    "evals repeated": _points(evals=[1, 1]),
    "best_f not strictly decreasing": _points(best_f=[5.0, 5.0]),
    "time_used < last trajectory elapsed": dict(time_used=1.5),
    "evals_used < last trajectory evals": dict(evals_used=5),
    "elapsed non-finite": _points(elapsed=[0.5, 1.0, math.nan]),
    "best_f non-finite": _points(best_f=[9.0, 5.0, -math.inf]),
    "time_used non-finite": dict(time_used=math.inf),
    "max_step_seconds non-finite": dict(max_step_seconds=math.nan),
    "time_used negative": dict(NO_POINTS, evals_used=0, time_used=-1.0),
    "evals_used negative": dict(NO_POINTS, evals_used=-1),
}


class TestAgainstTheReferenceParser:
    """parse_run_log against the parser that built a RunRecord per run
    (tests/reference_parser.py): the same issues in the same order, the same
    skipped runs, and columns that are RunColumns.of the reference's
    records, bit for bit."""

    @staticmethod
    def assert_same(path, context=""):
        from reference_parser import reference_parse_run_log

        reference, parsed = reference_parse_run_log(path), parse_run_log(path)
        assert parsed.issues == reference.issues, context
        assert parsed.skipped_runs == reference.skipped_runs, context
        assert_same_columns(parsed.columns, RunColumns.of(reference.records), context)
        return parsed

    def test_logs_of_real_runs(self, real_logs, rng, tmp_path):
        for path in real_logs:
            assert self.assert_same(path, path).issues == []
        path = tmp_path / "log.jsonl"
        write_run_log([random_record(rng) for _ in range(200)], path, params={"kind": "demo", "p": 0.5})
        assert self.assert_same(path).issues == []

    @pytest.mark.parametrize("base", ["real", "random"])
    def test_seeded_corruptions(self, real_logs, tmp_path, base):
        path = tmp_path / "log.jsonl"
        for seed in range(250):
            rng = np.random.default_rng(seed)
            if base == "real":
                lines = real_logs[seed % len(real_logs)].read_text().splitlines()
            else:
                write_run_log([random_record(rng) for _ in range(5)], path, params={"kind": "demo"})
                lines = path.read_text().splitlines()
            for _ in range(int(rng.integers(1, 4))):
                corrupt(lines, rng)
            path.write_bytes(("\n".join(lines) + "\n").encode())
            self.assert_same(path, f"{base} log, seed {seed}")

    @pytest.mark.parametrize("rule", sorted(RULE_BREAKS))
    def test_runs_that_break_each_rule(self, tmp_path, rule):
        broken = dataclasses.replace(BASE, **RULE_BREAKS[rule])
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(_log_lines([BASE, broken, BASE])) + "\n")
        parsed = self.assert_same(path)
        assert_same_columns(parsed.columns, RunColumns.of([BASE, BASE]))
        assert parsed.skipped_runs == 1
        [message] = parsed.issues
        assert message.startswith(f"line {len(BASE.elapsed) + 2 + len(broken.elapsed) + 2}: invalid run alg/")
        assert rule in message


def _plan(T=10.0, mode="virtual"):
    """A plan of arm `alg` on sphere-d2 at R = 2 whose budget is T on a `mode` clock."""
    from timefair.clock import ClockSpec
    from timefair.core import Budget
    from timefair.protocol import AlgorithmSpec, ExperimentPlan

    return ExperimentPlan(algorithms=(AlgorithmSpec("alg", "random-search"),), instances=("sphere-d2",),
                          budget=Budget(T), targets=None, repetitions=2, master_seed=0,
                          clock=ClockSpec(mode, 1.0 if mode == "virtual" else 0.0))


def _spending(repetition, time_used, max_step_seconds=0.0, run_index=0):
    """A run of `alg` on sphere-d2 with one point, at 0.0, that spent `time_used`."""
    return dataclasses.replace(BASE, elapsed=(0.0,), evals=(1,), best_f=(1.0,), evals_used=1, repetition=repetition,
                               run_index=run_index, time_used=time_used, max_step_seconds=max_step_seconds)


class TestLogIssues:
    """log_issues: the rules that the valid runs of one arm's log on one
    instance meet together, each issue in run order."""

    # (each run's repetition and run index, and its ids where they are not
    # alg/sphere-d2, in log order; the issues for R = 2)
    CASES = {
        "the-order-run-writes": ([(0, 0), (0, 1), (1, 0)], []),
        "gaps-left-by-skipped-runs": ([(0, 1), (0, 3), (1, 2)], []),
        "a-run-repeated": (
            [(0, 0), (0, 1), (1, 0), (0, 0)], ["runs out of order: rep=0 run=0 after rep=1 run=0"],
        ),
        "a-run-twice-in-a-row": ([(0, 0), (0, 0), (1, 0)], ["runs out of order: rep=0 run=0 after rep=0 run=0"]),
        "a-run-moved-back": ([(0, 1), (0, 0), (1, 0)], ["runs out of order: rep=0 run=0 after rep=0 run=1"]),
        "a-repetition-moved-back": (
            [(1, 0), (0, 0), (0, 1)], ["runs out of order: rep=0 run=0 after rep=1 run=0"],
        ),
        "another-arm": (
            [(0, 0), (1, 0, "other", "sphere-d2")], ["run other/sphere-d2 rep=1 run=0 is not a run of alg/sphere-d2"],
        ),
        "another-instance": (
            [(0, 0, "alg", "sphere-d5"), (1, 0)], ["run alg/sphere-d5 rep=0 run=0 is not a run of alg/sphere-d2"],
        ),
        "incomplete": ([(0, 0), (0, 1)], ["incomplete log: repetitions missing [1], unexpected []"]),
        "every-rule-in-run-order": (
            [(0, 1), (0, 0, "other", "sphere-d2"), (2, 0)],
            ["run other/sphere-d2 rep=0 run=0 is not a run of alg/sphere-d2",
             "runs out of order: rep=0 run=0 after rep=0 run=1",
             "incomplete log: repetitions missing [1], unexpected [2]"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_issues(self, tmp_path, case):
        runs, expected = self.CASES[case]
        path = tmp_path / "log.jsonl"
        write_run_log(
            [dataclasses.replace(BASE, repetition=rep, run_index=run, **dict(zip(("algorithm_id", "instance_id"), ids)))
             for rep, run, *ids in runs],
            path,
        )
        parsed = parse_run_log(path)
        assert parsed.issues == [] and parsed.columns.runs == len(runs)
        assert log_issues(parsed.columns, "alg", "sphere-d2", _plan()) == expected

    def test_only_valid_runs_count(self, tmp_path):
        # a skipped run is the parser's issue alone: it leaves a gap, and
        # the repetition it held is missing
        path = tmp_path / "log.jsonl"
        broken = dataclasses.replace(BASE, repetition=1, **RULE_BREAKS["evals repeated"])
        write_run_log([dataclasses.replace(BASE, run_index=0), BASE, broken], path)
        parsed = parse_run_log(path)
        assert parsed.skipped_runs == 1 and len(parsed.issues) == 1
        assert log_issues(parsed.columns, "alg", "sphere-d2", _plan()) == [
            "incomplete log: repetitions missing [1], unexpected []"
        ]

    # (T, the clock mode, each run's (repetition, time_used, max_step_seconds),
    # the issues): a repetition's runs spend at most T on the virtual clock,
    # summed in run order, and at most T plus the last run's max_step_seconds
    # on the real clock
    BUDGETS = {
        "virtual-at-T": (5.0, "virtual", [(0, 2.5, 0.0), (0, 2.5, 0.0), (1, 5.0, 0.0)], []),
        "virtual-past-T-by-one-ulp": (
            5.0, "virtual", [(0, 2.5, 0.0), (0, math.nextafter(5.0, 6.0) - 2.5, 0.0), (1, 5.0, 0.0)],
            ["over budget: rep=0 spent 5.000000000000001 s, more than T=5.0 s"],
        ),
        "virtual-summed-in-run-order": (  # 0.1 + 0.2 + 0.3 is past 0.6, 0.3 + 0.2 + 0.1 is not
            0.6, "virtual", [(0, 0.1, 0.0), (0, 0.2, 0.0), (0, 0.3, 0.0), (1, 0.3, 0.0), (1, 0.2, 0.0), (1, 0.1, 0.0)],
            ["over budget: rep=0 spent 0.6000000000000001 s, more than T=0.6 s"],
        ),
        "virtual-in-each-repetition": (
            5.0, "virtual", [(0, 6.0, 0.0), (1, 2.5, 0.0), (1, 3.0, 0.0)],
            ["over budget: rep=0 spent 6.0 s, more than T=5.0 s", "over budget: rep=1 spent 5.5 s, more than T=5.0 s"],
        ),
        "real-within-one-iteration": (5.0, "real", [(0, 2.5, 0.5), (0, 2.75, 0.25), (1, 5.25, 0.25)], []),
        "real-past-its-last-iteration": (  # the last run's max_step_seconds counts, not the largest
            5.0, "real", [(0, 2.5, 0.5), (0, 2.75, 0.125), (1, 5.0, 0.0)],
            ["over budget: rep=0 spent 5.25 s, more than T=5.0 s plus its last run's max_step_seconds 0.125 s"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(BUDGETS))
    def test_the_budget(self, tmp_path, case):
        T, mode, runs, expected = self.BUDGETS[case]
        path = tmp_path / "log.jsonl"
        write_run_log([_spending(rep, used, step, run) for run, (rep, used, step) in enumerate(runs)], path)
        parsed = parse_run_log(path)
        assert parsed.issues == [] and log_issues(parsed.columns, "alg", "sphere-d2", _plan(T, mode)) == expected

    def test_a_real_repetition_that_evaluated_nothing_may_outlast_T(self, tmp_path):
        # its only run's init outlasted T, and no stopping check bounds that
        path = tmp_path / "log.jsonl"
        empty = dataclasses.replace(BASE, **NO_POINTS, evals_used=0, run_index=0, time_used=7.0, max_step_seconds=0.0)
        write_run_log([empty, _spending(1, 5.0)], path)
        columns = parse_run_log(path).columns
        assert log_issues(columns, "alg", "sphere-d2", _plan(5.0, "real")) == []
        assert log_issues(columns, "alg", "sphere-d2", _plan(5.0, "virtual")) == [
            "over budget: rep=0 spent 7.0 s, more than T=5.0 s"
        ]


def test_run_dir_issues_name_missing_logs_in_plan_order_then_strays_in_path_order(tmp_path):
    from types import SimpleNamespace

    plan = SimpleNamespace(
        algorithms=[SimpleNamespace(label="b"), SimpleNamespace(label="a")], instances=("sphere-d5", "sphere-d2")
    )
    # a finished run: its effective config, and the manifest that run writes last
    report.write_effective_config({}, tmp_path)
    report.write_manifest({"checklist": {"artifacts": {"config_hash": report.config_hash({})}}}, tmp_path)
    for label, instance_id in [("b", "sphere-d5"), ("a", "sphere-d2"), ("z", "sphere-d2"), ("a", "ackley-d3")]:
        path = report.run_log_path(tmp_path, label, instance_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    (tmp_path / "runs" / "a" / "notes.txt").write_text("")  # not a run log
    assert report.run_dir_issues(tmp_path, plan) == [
        "runs/b/sphere-d2.jsonl: missing run log",
        "runs/a/sphere-d5.jsonl: missing run log",
        "runs/a/ackley-d3.jsonl: stray run log: the plan has no such (algorithm, instance) pair",
        "runs/z/sphere-d2.jsonl: stray run log: the plan has no such (algorithm, instance) pair",
    ]
    for label, instance_id in [("b", "sphere-d2"), ("a", "sphere-d5")]:
        report.run_log_path(tmp_path, label, instance_id).write_text("")
    (tmp_path / "runs" / "z" / "sphere-d2.jsonl").unlink()
    (tmp_path / "runs" / "a" / "ackley-d3.jsonl").unlink()
    assert report.run_dir_issues(tmp_path, plan) == []


@pytest.mark.parametrize(
    "manifest, issue",
    [
        (None, "missing (run writes it last, so the run did not finish)"),
        ("<directory>", "cannot be read: Is a directory"),
        ("same", None),
        ("other", "config_hash does not match the stored effective config"),
        ('{"checklist": ', "not valid JSON: "),
        ("[]", "holds no checklist.artifacts.config_hash"),
        ('{"checklist": {"artifacts": {"status": "NA"}}}', "holds no checklist.artifacts.config_hash"),
    ],
    ids=["no-manifest", "unreadable", "same-hash", "other-hash", "not-json", "not-an-object", "no-config-hash"],
)
def test_run_dir_issues_first_check_the_manifests_config_hash(tmp_path, manifest, issue):
    # analyze reads T, the targets and R from effective_config.json, so it
    # applies report's item 8 config rule before it trusts that file
    from types import SimpleNamespace

    config = {"budget": {"wall_time_limit": 50.0}}
    report.write_effective_config(config, tmp_path)
    hashes = {"same": report.config_hash(config), "other": report.config_hash({"budget": {"wall_time_limit": 25.0}})}
    if manifest == "<directory>":
        (tmp_path / report.MANIFEST_NAME).mkdir()
    elif manifest is not None:
        if manifest in hashes:
            manifest = json.dumps({"checklist": {"artifacts": {"config_hash": hashes[manifest]}}})
        (tmp_path / report.MANIFEST_NAME).write_text(manifest)
    plan = SimpleNamespace(algorithms=[SimpleNamespace(label="a")], instances=("sphere-d2",))
    issues = report.run_dir_issues(tmp_path, plan)
    assert issues[-1] == "runs/a/sphere-d2.jsonl: missing run log"
    if issue is None:
        assert len(issues) == 1
    else:
        assert len(issues) == 2 and issues[0].startswith(f"manifest.json: {issue}")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCurveEmission:
    def test_empty_profile_gives_header_only_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        emit_profile_csv([], path)
        header, rows = read_csv(path)
        assert header == ["tau", "rho", "solver"] and rows == []

    def test_profile_fixture_has_boundary_pairs(self, tmp_path):
        costs = CostMatrix(("A", "B"), ("p1", "p2"), ((2.0, 4.0), (6.0, 3.0)))
        path = tmp_path / "profile.csv"
        emit_profile_csv(performance_profile(costs), path)
        header, rows = read_csv(path)
        by_solver = {}
        for tau, rho, solver in rows:
            by_solver.setdefault(solver, []).append((float(tau), float(rho)))
        assert by_solver["A"] == [(1.0, 0.0), (1.0, 0.5), (2.0, 0.5), (2.0, 1.0)]
        assert len(by_solver["A"]) == len(by_solver["B"]) == 4

    def test_ecdf_csv_roundtrip_is_exact(self, rng, tmp_path):
        records = [random_record(rng) for _ in range(25)]
        targets = {"sphere-d2": (50.0, 10.0), "rastrigin-d5": (50.0, 10.0)}
        curve = anytime_ecdf(pair_times(records, targets), default_time_grid(7.3))
        path = tmp_path / "ecdf.csv"
        emit_ecdf_csv(curve, path)
        header, rows = read_csv(path)
        assert header == ["time", "fraction", "n_num", "n_den"]
        rebuilt = EcdfCurve(
            time_grid=tuple(float(r[0]) for r in rows),
            fraction=tuple(float(r[1]) for r in rows),
            numerators=tuple(int(r[2]) for r in rows),
            denominators=tuple(int(r[3]) for r in rows),
        )
        assert rebuilt == curve

    def test_median_csv_roundtrip_preserves_infinity(self, rng, tmp_path):
        records = [random_record(rng, allow_empty=False) for _ in range(6)]
        curve = median_trajectory(RunColumns.of(records), default_time_grid(5.0), bootstrap_samples=100)
        path = tmp_path / "median.csv"
        emit_median_csv({"alg": curve}, path)
        header, rows = read_csv(path)
        assert header == ["time", "median", "ci_lo", "ci_hi", "solver"]
        rebuilt = MedianCurve(
            time_grid=tuple(float(r[0]) for r in rows),
            median=tuple(float(r[1]) for r in rows),
            ci_lo=tuple(float(r[2]) for r in rows),
            ci_hi=tuple(float(r[3]) for r in rows),
        )
        assert rebuilt == curve
        assert math.isinf(curve.median[0])  # grid starts before any evaluation

    def test_emission_is_deterministic(self, rng, tmp_path):
        curve = anytime_ecdf(
            pair_times(
                [random_record(rng) for _ in range(10)],
                {"sphere-d2": (40.0,), "rastrigin-d5": (40.0,)},
            ),
            default_time_grid(3.0),
        )
        emit_ecdf_csv(curve, tmp_path / "a.csv")
        emit_ecdf_csv(curve, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_ert_table_header(self, tmp_path):
        emit_ert_table(
            {("pso", "sphere-d2", 1.0): ErtResult(target=1.0, ert=math.inf, successes=0, runs=3, success_rate=0.0)},
            tmp_path / "ert.csv",
        )
        header, rows = read_csv(tmp_path / "ert.csv")
        assert header == ["solver", "instance", "target", "ert", "successes", "runs", "success_rate"]
        assert rows[0][3] == "inf" and float(rows[0][3]) == math.inf


def _tiny_experiment(tmp_path, **extra):
    from timefair.cli import plan_from_config, validate_config
    from timefair.protocol import run_plan

    config = validate_config(
        {
            "output_dir": str(tmp_path / "out"),
            "budget": {"wall_time_limit": 0.5},
            "targets": {"kind": "absolute", "values": [5.0, 1.0]},
            "repetitions": 2,
            "master_seed": 7,
            "clock": {"mode": "virtual", "cost_per_eval": 0.015625},
            "algorithms": [{"label": "rs", "kind": "random-search", "params": {"max_iterations": 8}}],
            "instances": ["sphere-d2"],
            **extra,
        }
    )
    plan = plan_from_config(config)
    grouped = run_plan(plan)
    out_dir = tmp_path / "out"
    for (label, instance_id), records in grouped.items():
        write_run_log(records, out_dir / "runs" / label / f"{instance_id}.jsonl")
    with open(out_dir / "effective_config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return plan, grouped, out_dir, config


class TestManifest:
    def test_virtual_fixture_passes_completeness(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        assert manifest["checklist"]["environment"]["timer"] == "virtual"
        items = audit_manifest(manifest, out_dir)
        assert all(item.status != "FAIL" for item in items)
        # tuning was not configured, so item 7 is a justified NA
        assert [i.status for i in items if i.number == 7] == ["NA"]
        assert manifest_verdict(items) == "PASS-with-note"

    def test_average_completed_runs_from_logs(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        avg = manifest["checklist"]["restart_policy"]["average_completed_runs"]["rs/sphere-d2"]
        records = grouped[("rs", "sphere-d2")]
        expected = sum(
            1 for r in records if r.termination is not Termination.BUDGET_EXHAUSTED
        ) / plan.repetitions
        assert avg == expected

    def test_tuning_section_is_echoed(self, tmp_path):
        tuning = {"method": "grid search", "seconds": {"rs": 12.0}}
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path, tuning=tuning)
        manifest = build_manifest(plan, grouped, out_dir, config)
        # the amortization rule is the one analyze applies, not a config key
        assert manifest["checklist"]["tuning"] == {**tuning, "amortization": "uniform over the instance set"}
        items = audit_manifest(manifest, out_dir)
        assert [i.status for i in items if i.number == 7] == ["PASS"]
        assert manifest_verdict(items) == "PASS"

    def test_tampered_log_digest_fails_item_8(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        log_path = out_dir / "runs" / "rs" / "sphere-d2.jsonl"
        with open(log_path, "a") as fh:
            fh.write("\n")
        items = audit_manifest(manifest, out_dir)
        item8 = next(i for i in items if i.number == 8)
        assert item8.status == "FAIL" and "digest" in item8.note
        assert manifest_verdict(items) == "FAIL"

    def test_log_digest_outside_the_run_directory_fails_item_8(self, tmp_path):
        # a listed log must be one of this directory's run logs, even when
        # the file exists elsewhere and its digest is right
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        elsewhere = tmp_path / "elsewhere.jsonl"
        elsewhere.write_text("")
        manifest["checklist"]["artifacts"]["log_digests"]["../elsewhere.jsonl"] = sha256_file(elsewhere)
        items = audit_manifest(manifest, out_dir)
        item8 = next(i for i in items if i.number == 8)
        assert item8.status == "FAIL"
        assert item8.note == "log file ../elsewhere.jsonl is missing"

    def test_edited_effective_config_fails_item_8(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        edited = {**config, "repetitions": 3}
        (out_dir / "effective_config.json").write_text(json.dumps(edited, indent=2, sort_keys=True))
        items = audit_manifest(manifest, out_dir)
        item8 = next(i for i in items if i.number == 8)
        assert item8.status == "FAIL"
        assert item8.note == "config_hash does not match the stored effective config"

    @pytest.mark.parametrize("digests", [None, 5, ["runs/rs/sphere-d2.jsonl"], "x"])
    def test_log_digests_not_an_object_fails_item_8_only(self, tmp_path, digests):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        manifest["checklist"]["artifacts"]["log_digests"] = digests
        items = audit_manifest(manifest, out_dir)
        assert [(i.number, i.status, i.note) for i in items if i.status == "FAIL"] == [
            (8, "FAIL", "log_digests is not a JSON object")
        ]
        assert len(items) == 8

    def test_artifacts_missing_a_field_names_it(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        del manifest["checklist"]["artifacts"]["log_digests"]
        items = audit_manifest(manifest, out_dir)
        item8 = next(i for i in items if i.number == 8)
        assert item8.status == "FAIL" and item8.note == "missing field(s): log_digests"

    def test_git_commit_is_the_checkouts_head(self, tmp_path, monkeypatch):
        # run from inside another repository: the manifest attests the
        # checkout that holds the code, not the working directory's HEAD
        checkout = Path(timefair.__file__).resolve().parents[2]
        head = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        )
        if head.returncode != 0 or Path(head.stdout.splitlines()[0]).resolve() != checkout:
            pytest.skip("the code is not in a git checkout")
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        subprocess.run([*git, "init", "-q", str(tmp_path)], check=True)
        subprocess.run([*git, "-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "x"], check=True)
        monkeypatch.chdir(tmp_path)
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        assert manifest["checklist"]["artifacts"]["git_commit"] == head.stdout.splitlines()[1]

    def test_zero_wall_time_limit_fails_item_1(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        manifest["checklist"]["budget"]["wall_time_limit_seconds"] = 0
        items = audit_manifest(manifest, out_dir)
        item1 = next(i for i in items if i.number == 1)
        assert (item1.status, item1.note) == ("FAIL", "wall_time_limit must be > 0")

    @pytest.mark.parametrize(
        "value", [True, "5", None, [1], 10**400], ids=["true", "string", "null", "list", "past-float-range"]
    )
    def test_wall_time_limit_that_is_not_a_number_fails_item_1(self, tmp_path, value):
        # JSON true is a Python int, but it states no budget; an integer
        # past float range is no finite budget either
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        manifest["checklist"]["budget"]["wall_time_limit_seconds"] = value
        items = audit_manifest(manifest, out_dir)
        item1 = next(i for i in items if i.number == 1)
        assert (item1.status, item1.note) == ("FAIL", "wall_time_limit must be > 0")

    def test_missing_section_fails_its_item(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        del manifest["checklist"]["statistics"]
        items = audit_manifest(manifest, out_dir)
        item5 = next(i for i in items if i.number == 5)
        assert item5.status == "FAIL"

    def test_budget_values_recorded(self, tmp_path):
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path)
        manifest = build_manifest(plan, grouped, out_dir, config)
        budget = manifest["checklist"]["budget"]
        assert budget["wall_time_limit_seconds"] == 0.5
        assert budget["clock_mode"] == "virtual"
        assert budget["max_overshoot_seconds"] == 0.0
        assert budget["clock_scheme"] == CLOCK_SCHEME_ID
        assert budget["synthetic_overhead"] == {"rs": 0.0}

    def test_harness_bookkeeping_says_what_the_clock_charges(self, tmp_path):
        # a virtual clock charges counts; a real one also times the runner's
        # stopping checks and the evaluator's bookkeeping
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path / "virtual")
        environment = build_manifest(plan, grouped, out_dir, config)["checklist"]["environment"]
        assert environment["harness_bookkeeping"] == (
            "no timer runs: virtual time is charged from evaluation and "
            "iteration counts (see budget.clock_scheme); logging happens "
            "between runs and is excluded from time_used"
        )
        plan, grouped, out_dir, config = _tiny_experiment(
            tmp_path / "real", clock={"mode": "real"}, budget={"wall_time_limit": 0.01}
        )
        environment = build_manifest(plan, grouped, out_dir, config)["checklist"]["environment"]
        text = environment["harness_bookkeeping"]
        assert environment["timer"] == "perf_counter (monotonic)"
        assert "iterations only" not in text
        for part in (
            "stopping check",
            "evaluator's bookkeeping",
            "shape check",
            "bounds check",
            "clip and clamp count",
            "FE count",
            "improvement scan and stamp",
            "excluded from time_used",
        ):
            assert part in text, part

    def test_synthetic_overhead_is_what_each_clock_charged(self, tmp_path):
        algorithms = [
            {"label": "rs", "kind": "random-search", "params": {"max_iterations": 8}},
            {"label": "rs-heavy", "kind": "random-search", "params": {"max_iterations": 8},
             "wrappers": {"synthetic_overhead": 0.03125}},
        ]
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path, algorithms=algorithms)
        manifest = build_manifest(plan, grouped, out_dir, config)
        assert manifest["checklist"]["budget"]["synthetic_overhead"] == {"rs": 0.0, "rs-heavy": 0.03125}
        # each heavy iteration costs one 0.015625 s evaluation plus the overhead
        records = grouped[("rs-heavy", "sphere-d2")]
        assert all(r.time_used == r.evals_used * (0.015625 + 0.03125) for r in records)
        assert max(r.time_used for r in records) == 8 * 0.046875

    def test_digests_only_this_runs_logs(self, tmp_path, capsys):
        # a stale log of another arm beside a one-arm run: the manifest must
        # not attest to it, and the audit must flag it as unlisted
        from timefair.cli import main

        config = {
            "budget": {"wall_time_limit": 0.5},
            "repetitions": 1,
            "master_seed": 3,
            "clock": {"mode": "virtual", "cost_per_eval": 0.015625},
            "algorithms": [{"label": "rs", "kind": "random-search", "params": {"max_iterations": 8}}],
            "instances": ["sphere-d2"],
        }
        out_dir = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
        stale = out_dir / "runs" / "pso" / "sphere-d2.jsonl"
        stale.parent.mkdir()
        stale.write_text("")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert list(manifest["checklist"]["artifacts"]["log_digests"]) == ["runs/rs/sphere-d2.jsonl"]
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 1
        stdout = capsys.readouterr().out
        assert (
            "item 8 (reproducibility artifacts): FAIL — run log(s) not in log_digests: "
            "runs/pso/sphere-d2.jsonl\n"
        ) in stdout


class TestHashing:
    def test_sha256_file_matches_content(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_environment_probe_has_required_fields():
    env = probe_environment(virtual=False)
    assert env["timer"].startswith("perf_counter")
    assert "os" in env and "python" in env and "timer_resolution_seconds" in env
    assert env["logical_cores"] == os.cpu_count()
    names = getattr(os, "sysconf_names", {})
    if "SC_PAGE_SIZE" in names and "SC_PHYS_PAGES" in names:
        assert isinstance(env["memory_gb"], float) and env["memory_gb"] > 0
