import csv
import dataclasses
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import timefair
from timefair.clock import CLOCK_SCHEME_ID
from timefair.core import CostMatrix, ErtResult, RunRecord, Termination, TrajectoryPoint
from timefair.metrics import (
    EcdfCurve,
    MedianCurve,
    anytime_ecdf,
    default_time_grid,
    ert,
    median_trajectory,
    performance_profile,
    time_to_target,
)
from timefair.report import (
    LogParseError,
    audit_manifest,
    build_manifest,
    config_hash,
    emit_ecdf_csv,
    emit_ert_table,
    emit_median_csv,
    emit_profile_csv,
    manifest_verdict,
    parse_run_log,
    probe_environment,
    sha256_file,
    write_run_log,
)

from conftest import random_record


class TestRoundTrip:
    def test_parse_inverts_write(self, rng, tmp_path):
        records = [random_record(rng) for _ in range(100)]
        path = tmp_path / "log.jsonl"
        write_run_log(records, path, params={"kind": "demo", "p": 0.5})
        result = parse_run_log(path)
        assert result.records == records
        assert result.issues == [] and result.skipped_runs == 0

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, tmp_path_factory, seed):
        records = [random_record(np.random.default_rng(seed)) for _ in range(3)]
        path = tmp_path_factory.mktemp("rt") / "log.jsonl"
        write_run_log(records, path)
        assert parse_run_log(path).records == records

    def test_empty_run_is_header_and_end_only(self, tmp_path):
        record = RunRecord(
            algorithm_id="a",
            instance_id="sphere-d2",
            seed=3,
            trajectory=(),
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
        assert parse_run_log(path).records == [record]

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
        reread = parse_run_log(path).records
        T = 30.0
        for q in (60.0, 20.0, -5.0):
            before = ert([time_to_target(r, q, T) for r in records], T)
            after = ert([time_to_target(r, q, T) for r in reread], T)
            assert before == after


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
        assert result.records == records[:-1]
        assert result.skipped_runs == 1
        assert any("run_end missing" in msg for msg in result.issues)

    def test_strict_mode_aborts_on_first_issue(self, tmp_path):
        _, path = self._write_valid(tmp_path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(LogParseError):
            parse_run_log(path, strict=True)

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
        assert result.records == [] and result.skipped_runs == 1
        assert any("elapsed non-monotone" in msg and "pso/sphere-d2" in msg for msg in result.issues)

    def test_malformed_line_reports_line_number(self, tmp_path):
        records, path = self._write_valid(tmp_path, n=1)
        with open(path, "a") as fh:
            fh.write("garbage\n")
        result = parse_run_log(path)
        assert result.records == records
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
        "unknown-kind": (['{"kind":"note"}'], "line {0}: unknown record kind 'note'", 0),
    }

    @pytest.mark.parametrize("case", sorted(ISSUE_CASES))
    def test_issue_names_its_line_and_keeps_neighbouring_runs(self, tmp_path, case):
        fragment, message, skipped = self.ISSUE_CASES[case]
        records, path = self._write_valid(tmp_path, n=2)
        lines = path.read_text().splitlines()
        cut = max(i for i, line in enumerate(lines) if '"run_header"' in line)
        first, second = lines[:cut], lines[cut:]
        path.write_text("\n".join([*first, *fragment, *second]) + "\n")
        result = parse_run_log(path)
        assert result.records == records
        assert result.skipped_runs == skipped
        numbers = range(len(first) + 1, len(first) + len(fragment) + 1)
        assert result.issues == [message.format(*numbers)]

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
        assert result.records == [] and result.skipped_runs == 1
        [message] = result.issues
        assert message.startswith(f"line {len(lines)}: malformed run_end for run {records[0].algorithm_id}/")
        with pytest.raises(LogParseError, match="malformed run_end"):
            parse_run_log(path, strict=True)


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
        curve = anytime_ecdf(records, targets, default_time_grid(7.3))
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
        curve = median_trajectory(records, default_time_grid(5.0), bootstrap_samples=100)
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
            [random_record(rng) for _ in range(10)],
            {"sphere-d2": (40.0,), "rastrigin-d5": (40.0,)},
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
        tuning = {"method": "grid search", "seconds": {"rs": 12.0}, "amortization": "uniform"}
        plan, grouped, out_dir, config = _tiny_experiment(tmp_path, tuning=tuning)
        manifest = build_manifest(plan, grouped, out_dir, config)
        assert manifest["checklist"]["tuning"] == tuning
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
