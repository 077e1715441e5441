import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from timefair import metrics, report
from timefair.cli import (
    ConfigError,
    demo_config,
    main,
    plan_from_config,
    scenario_plan,
    validate_config,
)
from timefair.core import CostMatrix, RunRecord, Termination
from timefair.metrics import performance_profile

from conftest import columns, hits_by_pair


def write_config(tmp_path, mutate=None, name="config.json"):
    cfg = demo_config()
    # shrink the demo for unit-test speed: one PSO arm, fewer repetitions
    cfg["repetitions"] = 2
    cfg["algorithms"] = [
        {"label": "rs-a", "kind": "random-search", "params": {"max_iterations": 64}},
        {"label": "rs-b", "kind": "random-search", "params": {"max_iterations": 64}},
    ]
    cfg["budget"] = {"wall_time_limit": 1.0, "eval_cap": None}
    cfg["instances"] = ["sphere-d2", "rastrigin-d2"]
    cfg["targets"] = {"kind": "absolute", "values": [10.0, 1.0, 0.1]}
    cfg["metrics"]["bootstrap_samples"] = 100
    cfg["output_dir"] = str(tmp_path / "out")
    if mutate:
        mutate(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def garble_first_improvement(log) -> int:
    """Replace `log`'s first improvement line with garbage; its line number."""
    lines = log.read_bytes().splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if b'"improvement"' in line)
    lines[n] = b"garbage\n"
    log.write_bytes(b"".join(lines))
    return n + 1


class TestValidateConfig:
    def test_demo_config_is_valid(self):
        effective = validate_config(demo_config())
        assert effective["repetitions"] == 3
        assert effective["metrics"]["confidence"] == 0.95
        assert effective["parallel"] is False

    def test_unknown_key_is_an_error(self):
        cfg = demo_config()
        cfg["budgett"] = {}
        with pytest.raises(ConfigError, match="budgett"):
            validate_config(cfg)

    def test_nonpositive_budget_names_the_field(self):
        cfg = demo_config()
        cfg["budget"]["wall_time_limit"] = -1.0
        with pytest.raises(ConfigError, match="wall_time_limit"):
            plan_from_config(validate_config(cfg))

    def test_missing_required_key(self):
        cfg = demo_config()
        del cfg["master_seed"]
        with pytest.raises(ConfigError, match="master_seed"):
            validate_config(cfg)

    def test_relative_targets_get_default_ladder(self):
        cfg = demo_config()
        cfg["targets"] = {"kind": "relative"}
        effective = validate_config(cfg)
        assert effective["targets"]["values"] == [10.0, 1.0, 0.1, 0.01, 0.001]

    def test_real_clock_with_synthetic_costs_rejected(self):
        cfg = demo_config()
        cfg["clock"] = {"mode": "real", "cost_per_eval": 0.1}
        with pytest.raises(ConfigError, match="virtual"):
            plan_from_config(validate_config(cfg))

    def test_unsafe_label_rejected(self):
        cfg = demo_config()
        cfg["algorithms"][0]["label"] = "../evil"
        with pytest.raises(ConfigError, match="label"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: c["clock"].update(cost_per_eval=math.nan), "cost_per_eval"),
            (lambda c: c["clock"].update(cost_per_eval=math.inf), "cost_per_eval"),
            # overheads are per algorithm (wrappers): the clock key is refused
            (
                lambda c: c["clock"].update(iteration_overhead={"pso": math.nan}),
                r"clock: unknown key\(s\): iteration_overhead",
            ),
            (lambda c: c["algorithms"][1]["wrappers"].update(synthetic_overhead=math.inf), "overhead"),
            (lambda c: c["targets"].update(values=[math.inf, 5.0]), "target values"),
            (lambda c: c["targets"].update(values=[100.0, math.nan]), "target values"),
            (lambda c: c.update(tuning={"method": "grid", "seconds": {"pso": math.nan}}), "tuning.seconds"),
            (lambda c: c.update(tuning={"method": "grid", "seconds": {"pso": math.inf}}), "tuning.seconds"),
            (lambda c: c["algorithms"][2]["params"].update(max_iterations=math.nan), "max_iterations"),
            (lambda c: c["algorithms"][0]["params"].update(cognitive=math.inf), "cognitive"),
            (lambda c: c["algorithms"][0]["params"].update(velocity_clamp=math.inf), "velocity_clamp"),
            (
                lambda c: c["algorithms"][0].update(
                    wrappers={"stagnation_restart": {"plateau_window": 3, "plateau_epsilon": math.inf}}
                ),
                "plateau_epsilon",
            ),
        ],
        ids=["nan-cost", "inf-cost", "nan-iteration-overhead", "inf-synthetic-overhead",
             "inf-target", "nan-target", "nan-tuning-seconds", "inf-tuning-seconds", "nan-max-iterations",
             "inf-cognitive", "inf-velocity-clamp", "inf-plateau-epsilon"],
    )
    def test_non_finite_numbers_rejected(self, mutate, field):
        cfg = demo_config()
        mutate(cfg)
        with pytest.raises(ConfigError, match=field):
            plan_from_config(validate_config(cfg))


class TestCmdRun:
    def test_run_produces_logs_and_passing_manifest(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = Path(cfg["output_dir"])
        assert (out / "manifest.json").exists()
        assert (out / "effective_config.json").exists()
        for label in ("rs-a", "rs-b"):
            for instance in ("sphere-d2", "rastrigin-d2"):
                assert (out / "runs" / label / f"{instance}.jsonl").exists()
        assert main(["report", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "checklist verdict: PASS" in stdout

    def test_demo_run_logs_match_their_pinned_digests(self, tmp_path):
        # the digests of sampling through `Generator.uniform` and of writing
        # each line through `json.dumps`
        out = tmp_path / "demo"
        assert main(["run", "--config", str(DEMO_PATH), "--seed", "1", "--out", str(out)]) == 0
        digests = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.glob("runs/*/*.jsonl")
        }
        assert digests == {
            "runs/pso/rastrigin-d10.jsonl": "e8d9527a9e14f48c0221b8641642daebeaf0662025f6501b949c5e9ce8080d62",
            "runs/pso-heavy/rastrigin-d10.jsonl": "553dfc5ef7a634e595b171354e37c87779d3561195616c1e1a5f6c2fff6e2090",
            "runs/random-search/rastrigin-d10.jsonl": "29ad85d2935aea182c43ff04563b55e233966b6854ae365185437ca3b45c592c",
        }

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "one")]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "two")]) == 0
        for rel in [
            "runs/rs-a/sphere-d2.jsonl",
            "runs/rs-a/rastrigin-d2.jsonl",
            "runs/rs-b/sphere-d2.jsonl",
        ]:
            one = (tmp_path / "one" / rel).read_bytes()
            two = (tmp_path / "two" / rel).read_bytes()
            assert one == two

    def test_seed_override_changes_logs(self, tmp_path):
        path, _ = write_config(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "one")])
        main(["run", "--config", str(path), "--out", str(tmp_path / "two"), "--seed", "999"])
        assert (tmp_path / "one" / "runs/rs-a/sphere-d2.jsonl").read_bytes() != (
            tmp_path / "two" / "runs/rs-a/sphere-d2.jsonl"
        ).read_bytes()

    def test_invalid_budget_exits_2_naming_field(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, mutate=lambda c: c["budget"].update(wall_time_limit=0.0))
        assert main(["run", "--config", str(path)]) == 2
        assert "wall_time_limit" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, mutate=lambda c: c.update(extra_knob=1))
        assert main(["run", "--config", str(path)]) == 2
        assert "extra_knob" in capsys.readouterr().err

    def test_tuning_seconds_for_unknown_solver_exits_2(self, tmp_path, capsys):
        # tuning time attested for a label the plan does not run is a typo
        path, _ = write_config(
            tmp_path, lambda c: c.update(tuning={"method": "grid", "seconds": {"rs-a": 5.0, "psoo": 100.0}})
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "tuning.seconds names unknown solver(s): psoo" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_problem_under_two_ids_exits_2(self, tmp_path, capsys):
        # rastrigin-d010 would run and count rastrigin-d10 a second time
        path, _ = write_config(tmp_path, lambda c: c.update(instances=["rastrigin-d10", "rastrigin-d010"]))
        assert main(["run", "--config", str(path)]) == 2
        assert "malformed instance id 'rastrigin-d010'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: c["algorithms"][0].update(wrappers=[1, 2]), "algorithms[0].wrappers"),
            (lambda c: c.update(instances=[5]), "instances"),
            (
                lambda c: c["algorithms"].__setitem__(
                    0, {"label": "pso", "kind": "pso", "params": {"swarm_size": "40"}}
                ),
                "params.swarm_size",
            ),
            (
                lambda c: c["algorithms"][0].update(
                    wrappers={"stagnation_restart": {"plateau_window": "3", "plateau_epsilon": 0.1}}
                ),
                "plateau_window",
            ),
            (
                lambda c: c["algorithms"][0].update(
                    wrappers={"stagnation_restart": {"plateau_window": 3, "plateau_epsilon": "0.1"}}
                ),
                "stagnation_restart.plateau_epsilon must be a number",
            ),
            (
                lambda c: c["algorithms"][0].update(
                    wrappers={
                        "stagnation_restart": {"plateau_window": 3, "plateau_epsilon": 0.1, "max_restarts": 1.5}
                    }
                ),
                "stagnation_restart.max_restarts must be an integer",
            ),
            (lambda c: c["algorithms"][0].update(wrappers={"warm_start": 1}), "unknown wrappers for rs-a: warm_start"),
            (lambda c: c["algorithms"][0].update(params=[]), "algorithms[0].params must be an object"),
            (lambda c: c.update(output_dir=5), "output_dir"),
            (lambda c: c.update(budget=[]), "budget must be an object"),
            (lambda c: c.update(instances="sphere-d2"), "instances must be a list"),
            (lambda c: c.update(parallel="yes"), "parallel must be a boolean"),
            (lambda c: c["metrics"].update(confidence=1.0), "metrics.confidence must lie in (0, 1)"),
            (lambda c: c["metrics"].update(bootstrap_samples=50), "metrics.bootstrap_samples must be >= 100"),
            (lambda c: c.update(tuning={"method": "grid", "seconds": []}), "tuning.seconds must map"),
            # a NaN method would pass to the end of the run and then fail the manifest's JSON dump
            (lambda c: c.update(tuning={"method": math.nan, "seconds": {"rs-a": 5.0}}), "tuning.method"),
            (lambda c: c.update(tuning={"method": 3, "seconds": {"rs-a": 5.0}}), "tuning.method"),
            (
                lambda c: c.update(tuning={"method": "grid", "seconds": {"rs-a": 5.0}, "amortization": "uniform"}),
                "tuning: unknown key(s): amortization",
            ),
            # overheads belong to the algorithms: a per-label clock overhead
            # could name a label the plan lacks and go uncharged
            (
                lambda c: c["clock"].update(iteration_overhead={"psoo": 100.0}),
                "clock: unknown key(s): iteration_overhead",
            ),
        ],
        ids=["wrappers-list", "instance-int", "swarm-size-string", "plateau-window-string",
             "plateau-epsilon-string", "max-restarts-float", "unknown-wrapper", "params-list",
             "output-dir-int", "budget-list", "instances-string", "parallel-string", "confidence-one",
             "bootstrap-samples-50", "tuning-seconds-list", "tuning-method-nan", "tuning-method-int",
             "tuning-amortization-key", "iteration-overhead-key"],
    )
    def test_malformed_values_exit_2_naming_field(self, tmp_path, capsys, mutate, field):
        path, _ = write_config(tmp_path, mutate=mutate)
        assert main(["run", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c, x: c["budget"].update(wall_time_limit=x), "wall_time_limit"),
            (lambda c, x: c["budget"].update(eval_cap=x), "eval_cap"),
            (lambda c, x: c["targets"].update(values=[10.0, x]), "target values"),
            (lambda c, x: c["clock"].update(cost_per_eval=x), "cost_per_eval"),
            *[
                (lambda c, x, k=k: c["algorithms"][0].update(kind="pso", params={k: x}), k)
                for k in ("swarm_size", "inertia", "cognitive", "social", "velocity_clamp", "max_iterations")
            ],
            (lambda c, x: c["algorithms"][0].update(wrappers={"synthetic_overhead": x}), "synthetic_overhead"),
            *[
                (
                    lambda c, x, k=k: c["algorithms"][0].update(
                        wrappers={"stagnation_restart": {"plateau_window": 3, "plateau_epsilon": 0.1, k: x}}
                    ),
                    k,
                )
                for k in ("plateau_window", "plateau_epsilon", "max_restarts")
            ],
            (lambda c, x: c.update(repetitions=x), "repetitions"),
            (lambda c, x: c.update(master_seed=x), "master_seed"),
            *[
                (lambda c, x, k=k: c["metrics"].update({k: x}), f"metrics.{k}")
                for k in ("time_grid_points", "bootstrap_samples", "confidence")
            ],
            (lambda c, x: c.update(tuning={"method": "grid", "seconds": {"rs-a": x}}), "tuning.seconds"),
        ],
        ids=["wall-time-limit", "eval-cap", "target-value", "cost-per-eval", "swarm-size", "inertia",
             "cognitive", "social", "velocity-clamp", "max-iterations", "synthetic-overhead",
             "plateau-window", "plateau-epsilon", "max-restarts", "repetitions", "master-seed",
             "time-grid-points", "bootstrap-samples", "confidence", "tuning-seconds"],
    )
    def test_every_numeric_field_rejects_nan_and_infinity(self, tmp_path, capsys, mutate, field):
        # json.dumps writes the NaN, Infinity and -Infinity tokens that Python's parser reads back
        for value in (math.nan, math.inf, -math.inf):
            path, _ = write_config(tmp_path, mutate=lambda c: mutate(c, value))
            assert main(["run", "--config", str(path)]) == 2, value
            assert field in capsys.readouterr().err, value
            assert not (tmp_path / "out").exists(), value

    @pytest.mark.parametrize(
        "text, message",
        [("{\"budget\": ", "is not valid JSON"), ("[]", "top-level config must be a JSON object")],
        ids=["invalid-json", "top-level-list"],
    )
    def test_config_that_is_not_a_json_object_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["run", "--config", "{dir}/effective_config.json"], ["analyze", "{dir}"]]
    )
    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, argv):
        path = tmp_path / "effective_config.json"
        path.write_bytes(b'{"budget": "\xff"}')
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        assert f"{path} is not valid JSON: 'utf-8' codec can't decode byte 0xff" in (
            capsys.readouterr().err
        )

    def test_second_run_into_the_same_directory_exits_2(self, tmp_path, capsys):
        def files(directory):
            return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}

        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        first = files(out)
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--seed", "8"]) == 2
        assert "already holds a run" in capsys.readouterr().err
        assert files(out) == first
        # a run log without a manifest is an earlier run too
        logs_only = tmp_path / "logs-only"
        (logs_only / "runs" / "rs-a").mkdir(parents=True)
        (logs_only / "runs" / "rs-a" / "sphere-d2.jsonl").write_text("")
        assert main(["run", "--config", str(path), "--out", str(logs_only)]) == 2
        assert files(logs_only) == {logs_only / "runs" / "rs-a" / "sphere-d2.jsonl": b""}

    def test_parallel_requires_virtual(self, tmp_path, capsys):
        def make_real(cfg):
            cfg["clock"] = {"mode": "real"}
            cfg["budget"]["wall_time_limit"] = 0.05
        path, _ = write_config(tmp_path, mutate=make_real)
        assert main(["run", "--config", str(path), "--parallel"]) == 2
        assert "virtual" in capsys.readouterr().err


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("exp")
    path, cfg = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = Path(cfg["output_dir"])
    assert main(["analyze", str(out)]) == 0
    return out, cfg


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """The demo's run directory, before any analysis."""
    out = tmp_path_factory.mktemp("demo") / "out"
    assert main(["run", "--config", str(DEMO_PATH), "--out", str(out)]) == 0
    return out


# every way a test below corrupts a log (see corrupt_pso_log)
CORRUPTIONS = ["not-utf8", "malformed-line", "empty", "last-repetition", "renumbered",
               "duplicated-run", "foreign-header", "malformed-line-and-duplicated-run"]


def corrupt_pso_log(case, text):
    """The demo's ``runs/pso/rastrigin-d10.jsonl`` (R = 3), `text`, corrupted
    as `case` names, and the first issue that analyze finds in it."""
    lines = text.splitlines(keepends=True)
    if case == "malformed-line-and-duplicated-run":  # a parse issue comes before a log-wide one
        garbled, msg = corrupt_pso_log("malformed-line", text)
        return garbled + corrupt_pso_log("duplicated-run", text)[0][len(text):], msg
    if case in ("not-utf8", "malformed-line"):  # the first improvement line garbled
        n = next(i for i, line in enumerate(lines) if b'"improvement"' in line)
        lines[n] = b"\xff\xfe garbage\n" if case == "not-utf8" else b"garbage\n"
        return b"".join(lines), f"line {n + 1}: malformed log line"
    if case == "empty":
        return b"", "incomplete log: repetitions missing [0, 1, 2], unexpected []"
    if case == "last-repetition":  # cut where repetition 2 starts
        n = next(i for i, line in enumerate(lines) if b'"repetition":2,' in line)
        return b"".join(lines[:n]), "incomplete log: repetitions missing [2], unexpected []"
    if case == "renumbered":
        return (text.replace(b'"repetition":2,', b'"repetition":5,'),
                "incomplete log: repetitions missing [2], unexpected [5]")
    if case == "duplicated-run":  # the first run appended again
        end = next(i for i, line in enumerate(lines) if b'"run_end"' in line)
        last = json.loads(next(line for line in reversed(lines) if b'"run_header"' in line))
        return text + b"".join(lines[: end + 1]), f"runs out of order: rep=0 run=0 after rep=2 run={last['run_index']}"
    assert case == "foreign-header"  # the first run's header names another arm
    return (text.replace(b'"algorithm_id":"pso"', b'"algorithm_id":"random-search"', 1),
            "run random-search/rastrigin-d10 rep=0 run=0 is not a run of pso/rastrigin-d10")


class TestCmdAnalyze:
    def test_ert_table_shape(self, experiment):
        out, cfg = experiment
        with open(out / "ert_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_expected = len(cfg["algorithms"]) * len(cfg["instances"]) * len(cfg["targets"]["values"])
        assert len(rows) == n_expected
        keys = {(r["solver"], r["instance"], r["target"]) for r in rows}
        assert len(keys) == n_expected

    def test_curve_files_exist(self, experiment):
        out, cfg = experiment
        for label in ("rs-a", "rs-b"):
            assert (out / "curves" / f"ecdf_{label}.csv").exists()
        for instance in cfg["instances"]:
            assert (out / "curves" / f"median_{instance}.csv").exists()
        assert (out / "curves" / "profile_target_10.csv").exists()
        assert (out / "curves" / "profile_target_0p1.csv").exists()

    def test_reanalysis_is_deterministic(self, experiment):
        out, _ = experiment
        before = {p: p.read_bytes() for p in sorted(out.glob("curves/*.csv"))}
        before[out / "ert_table.csv"] = (out / "ert_table.csv").read_bytes()
        assert main(["analyze", str(out)]) == 0
        for path, content in before.items():
            assert path.read_bytes() == content

    def test_stderr_names_each_profile_file_that_excluded_an_instance(self, tmp_path, capsys):
        # the metrics log nothing; analyze names, beside each profile file,
        # the instances that every solver failed at its target
        out = tmp_path / "demo"
        assert main(["run", "--config", str(DEMO_PATH), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        cfg = demo_config()
        with open(out / "ert_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = []
        for q in cfg["targets"]["values"]:
            failed = [
                i for i in cfg["instances"]
                if all(r["successes"] == "0" for r in rows if r["instance"] == i and float(r["target"]) == q)
            ]
            if failed:
                expected.append(f"profile_target_{q:g}.csv: excluded {len(failed)} all-failed instance(s): "
                                + ", ".join(failed))
        assert expected  # the demo's hardest targets go unreached
        assert err == [*expected, f"wrote ert_table.csv and curves/ to {out}"]

    def test_bootstrap_counts_are_drawn_once_per_run_count(self, tmp_path):
        # pairs are analyzed label-major and every pair draws with one B and
        # seed, so each label's pairs of equal run count share one draw; a
        # second analysis in the same process writes the same bytes
        def shape(cfg):  # fixed-length runs that reach no target: 2 and 4 runs a repetition
            cfg["instances"] = ["rastrigin-d10", "rosenbrock-d10"]
            cfg["algorithms"][1]["params"]["max_iterations"] = 32

        path, cfg = write_config(tmp_path, mutate=shape)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        runs = [
            len(report.parse_run_log(report.run_log_path(out, a["label"], i)).records)
            for a in cfg["algorithms"]
            for i in cfg["instances"]
        ]
        assert runs == [4, 4, 8, 8]
        metrics._resample_counts.cache_clear()
        assert main(["analyze", str(out)]) == 0
        assert metrics._resample_counts.cache_info().misses == len(set(runs))
        files = sorted([*out.glob("curves/*.csv"), out / "ert_table.csv"])
        first = [p.read_bytes() for p in files]
        assert main(["analyze", str(out)]) == 0
        assert [p.read_bytes() for p in files] == first

    def test_memory_does_not_grow_with_the_number_of_pairs(self, tmp_path):
        # one log is alive at a time: four pairs peak less than 25% above the
        # one pair of their largest log. Each pair is 32 long PSO runs (about
        # 7,000 improvements), so one parsed log outweighs the median's and
        # the bootstrap's arrays, and a second parsed log alive shows in the peak
        import tracemalloc

        def analysis_peak(labels, out):
            def shape(cfg):
                cfg.update(instances=["sphere-d2"], targets=None, repetitions=4, output_dir=str(out))
                cfg["algorithms"] = [
                    {"label": label, "kind": "pso", "params": {"swarm_size": 2, "max_iterations": 256}}
                    for label in labels
                ]
                cfg["budget"]["wall_time_limit"] = 32.0

            path, _ = write_config(tmp_path, mutate=shape, name=f"{out.name}.json")
            assert main(["run", "--config", str(path)]) == 0
            metrics._resample_counts.cache_clear()  # each analysis draws its counts
            tracemalloc.start()
            try:
                assert main(["analyze", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        labels = ["pso-0", "pso-1", "pso-2", "pso-3"]
        peak_all = analysis_peak(labels, tmp_path / "all")
        logs = {label: report.run_log_path(tmp_path / "all", label, "sphere-d2").read_bytes() for label in labels}
        largest = max(labels, key=lambda label: len(logs[label]))
        peak_one = analysis_peak([largest], tmp_path / "one")
        one_log = report.run_log_path(tmp_path / "one", largest, "sphere-d2")
        assert one_log.read_bytes() == logs[largest]  # run seeds depend on the label, not on the plan
        assert len(report.parse_run_log(one_log).evals) > 5000
        assert peak_all < 1.25 * peak_one, (peak_all, peak_one)

    def test_analysis_builds_no_trajectory_point_or_run_record(self, tmp_path, monkeypatch):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        built = []

        def counting(self, *args, _init=RunRecord.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(RunRecord, "__init__", counting)
        assert main(["analyze", str(out)]) == 0
        assert main(["analyze", "--strict-logs", str(out)]) == 0
        assert built == []
        assert report.parse_run_log(report.run_log_path(out, "rs-a", "sphere-d2")).records  # the count sees a view
        assert "RunRecord" in built

    def test_each_logs_issues_are_reported_as_it_is_read(self, tmp_path, capsys):
        # analyze reads rs-a's logs before rs-b's: each log's issue is on
        # stderr, ahead of its skip count, before the next log is read
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        labels = ("rs-a", "rs-b")
        for label in labels:
            garble_first_improvement(report.run_log_path(out, label, "sphere-d2"))
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        issues = [i for i, line in enumerate(lines) if line.startswith("log issue: ")]
        skips = [lines.index(f"runs/{label}/sphere-d2.jsonl: skipped 1 malformed run(s)") for label in labels]
        assert len(issues) == 2 and issues[0] < skips[0] < issues[1] < skips[1]

    def test_two_arms_logs_of_one_instance_are_named_apart(self, tmp_path, capsys):
        # rs-a and rs-b each write a sphere-d2.jsonl: an issue names the
        # log by its path under the run directory, which holds the arm
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        expected = [
            f"log issue: runs/{label}/sphere-d2.jsonl: line "
            f"{garble_first_improvement(report.run_log_path(out, label, 'sphere-d2'))}: malformed log line"
            for label in ("rs-a", "rs-b")
        ]
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        issues = [line for line in capsys.readouterr().err.splitlines() if line.startswith("log issue: ")]
        assert issues == expected and len(set(issues)) == 2

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_strict_and_lenient_see_the_same_first_issue(self, demo_run, tmp_path, capsys, case):
        # --strict-logs aborts on the first issue that lenient mode prints,
        # and lenient mode goes on with every valid run of the log
        out = tmp_path / "out"
        shutil.copytree(demo_run, out)
        log = report.run_log_path(out, "pso", "rastrigin-d10")
        text, msg = corrupt_pso_log(case, log.read_bytes())
        log.write_bytes(text)
        name = "runs/pso/rastrigin-d10.jsonl"
        capsys.readouterr()
        assert main(["analyze", "--strict-logs", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {name}: {msg}"]
        assert not (out / "ert_table.csv").exists()
        assert main(["analyze", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("log issue: ")][0] == f"log issue: {name}: {msg}"
        assert (f"{name}: skipped 1 malformed run(s)" in err) == ("malformed" in case or case == "not-utf8")
        with open(out / "ert_table.csv", newline="") as fh:
            runs = {row["runs"] for row in csv.DictReader(fh) if row["solver"] == "pso"}
        kept = report.parse_run_log(log).columns.runs
        assert runs == ({str(kept)} if kept else set())

    def test_a_valid_demo_prints_no_log_issue_in_either_mode(self, demo_run, tmp_path, capsys):
        outputs = []
        for mode in (["--strict-logs"], []):
            out = tmp_path / f"out{len(outputs)}"
            shutil.copytree(demo_run, out)
            capsys.readouterr()
            assert main(["analyze", *mode, str(out)]) == 0
            captured = capsys.readouterr()
            assert "log issue" not in captured.err and "malformed" not in captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_a_real_clock_hit_past_T_is_a_failure(self, tmp_path):
        # a real-clock run's last iteration can end after T, so its first
        # point at or below q can be stamped past T: the ERT table counts that
        # run as a failure, and the ECDF at T does not count it
        def real(cfg):
            cfg.update(clock={"mode": "real"}, instances=["sphere-d2"], targets={"kind": "absolute", "values": [1.0]})
            cfg["algorithms"] = [{"label": "rs", "kind": "random-search"}]

        _, cfg = write_config(tmp_path, mutate=real)
        out = Path(cfg["output_dir"])
        report.write_effective_config(validate_config(cfg), out)
        T = cfg["budget"]["wall_time_limit"]
        # rep 0 hits 1.0 at 0.5; rep 1 hits it at 1.25 and ends at 1.5, both against T = 1
        points = {0: ([(0.25, 1, 3.0), (0.5, 2, 0.5)], 0.75), 1: ([(0.5, 1, 3.0), (1.25, 2, 0.5)], 1.5)}
        records = [
            RunRecord("rs", "sphere-d2", rep, **columns(pts), time_used=used, evals_used=2,
                      termination=Termination.BUDGET_EXHAUSTED, repetition=rep)
            for rep, (pts, used) in points.items()
        ]
        assert T == 1.0 and records[1].time_used > T
        report.write_run_log(records, report.run_log_path(out, "rs", "sphere-d2"))
        assert main(["analyze", "--strict-logs", str(out)]) == 0
        with open(out / "ert_table.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (float(row["ert"]), int(row["successes"]), int(row["runs"])) == ((0.5 + 1.0) / 1, 1, 2)
        with open(out / "curves" / "ecdf_rs.csv", newline="") as fh:
            *_, at_T = csv.DictReader(fh)
        assert (float(at_T["time"]), int(at_T["n_num"]), int(at_T["n_den"])) == (T, 1, 2)

    def test_restart_heavy_analysis_matches_its_pinned_digests(self, tmp_path, capsys):
        # 483 short virtual runs (181, 180, 62 and 60 per pair): odd and even
        # R, with R * B above the bootstrap chunk for random search and below
        # it for the restarted PSO. The curve digests are those of the gather
        # bootstrap that the count bootstrap replaced; the run-log digests
        # those of sampling through `Generator.uniform` and of writing each
        # line through `json.dumps`.
        cfg = {
            "budget": {"wall_time_limit": 30.0},
            "targets": {"kind": "relative", "values": [100.0, 30.0, 10.0, 3.0]},
            "repetitions": 3,
            "master_seed": 11,
            "clock": {"mode": "virtual", "cost_per_eval": 0.125},
            "algorithms": [
                {"label": "random-search", "kind": "random-search", "params": {"max_iterations": 4}},
                {
                    "label": "pso-restart",
                    "kind": "pso",
                    "params": {"swarm_size": 4, "max_iterations": 3},
                    "wrappers": {"stagnation_restart": {"plateau_window": 2, "plateau_epsilon": 1e-3}},
                },
            ],
            "instances": ["sphere-d5", "rastrigin-d5"],
            "metrics": {"time_grid_points": 24, "bootstrap_samples": 400, "confidence": 0.9},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path)]) == 0
        assert main(["analyze", str(out)]) == 0
        digests = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in [*out.glob("runs/*/*.jsonl"), *out.glob("curves/*.csv"), out / "ert_table.csv"]
        }
        assert digests == {
            "runs/pso-restart/rastrigin-d5.jsonl": "bd4619f8b3647d33f8e821634e0da3f40e5e71f2aaedfa1d0d7217436d5fd0dc",
            "runs/pso-restart/sphere-d5.jsonl": "7886a234868218bbf67c353f0179499c2a91739047c26c1226be7893d3a08adb",
            "runs/random-search/rastrigin-d5.jsonl": "8107cd56f58a444bf8df0cd3be103fd3ee71af02fea2d116fe8facd38760e33a",
            "runs/random-search/sphere-d5.jsonl": "7dc83a67f1703ab331497362106a579023193822025727fd74ce4fb7bf8bcebe",
            "curves/ecdf_pso-restart.csv": "65840146020364339fed5e3b6916663be5ed62db1108c4fdf8269e230f8cc9f8",
            "curves/ecdf_random-search.csv": "9b85064a55fc2cf6bc0dfb40e3cad6dba7f759682f08eb04b57a7e302be23d1c",
            "curves/median_rastrigin-d5.csv": "552446f25e7b626a781285b5d3cada14784b7c801470307a0eb046b5e51422a1",
            "curves/median_sphere-d5.csv": "f4fb4eff52f0a4d89c50b733bd2b7f66569fcc476812848974a136098d541393",
            "curves/profile_target_10.csv": "c04ab9baf13c9e757951e8355f9df074e3b3c78f89dc644e7ff5366ef62efd2b",
            "curves/profile_target_100.csv": "0be1c9931a965268a50b75d35d0e134dc65a736f172dff59c80cafc75100af1c",
            "curves/profile_target_3.csv": "efb8612879cde9822f2dfceb7be609fc8410dccfaf75e84e004230f246747142",
            "curves/profile_target_30.csv": "84a748a4c0ede993346762f0efdc198b8a2d36fdf2b85cb8cc80dae588eb1e53",
            "ert_table.csv": "1bbc4964370d2002cde54a99f0741fb0d1004906315967549aec112118af4683",
        }

    def test_profile_files_keep_close_ladder_values_apart(self, tmp_path):
        # 100.0000001 and 100.0 print alike under :g; each ladder position
        # still gets a file of its own, holding its own profile
        cfg = demo_config()
        cfg["targets"]["values"] = [100.0000001, 100.0, 20.0]
        cfg["output_dir"] = str(tmp_path / "out")
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
        assert main(["analyze", str(out)]) == 0
        names = ["profile_target_100p0000001.csv", "profile_target_100.csv", "profile_target_20.csv"]
        assert sorted(p.name for p in out.glob("curves/profile_target_*.csv")) == sorted(names)
        plan = plan_from_config(validate_config(cfg))
        T = plan.budget.wall_time_limit
        grouped = {
            (spec.label, i): report.parse_run_log(report.run_log_path(out, spec.label, i)).records
            for spec in plan.algorithms
            for i in plan.instances
        }
        targets = {i: plan.targets.resolve() for i in plan.instances}  # absolute ladder
        analysis = metrics.analyze(hits_by_pair(grouped, targets), T, targets, metrics.default_time_grid(T))
        for name, curves in zip(names, analysis.profiles):
            report.emit_profile_csv(curves, tmp_path / "expected.csv")
            assert (out / "curves" / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_amortize_passes_through_to_profiles(self, tmp_path):
        # tuning.seconds is the one declaration of tuning time; analyze charges it
        tuning = {"method": "grid", "seconds": {"rs-a": 100}}
        path, cfg = write_config(tmp_path, mutate=lambda c: c.update(tuning=tuning))
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        assert main(["analyze", str(out)]) == 0
        labels = [a["label"] for a in cfg["algorithms"]]
        instances = cfg["instances"]
        share = {"rs-a": 100.0 / len(instances), "rs-b": 0.0}  # seconds spread over instances
        # reconstruct the profile input from the (round-trip exact) ERT table
        with open(out / "ert_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for target, suffix in zip(cfg["targets"]["values"], ("10", "1", "0p1")):
            cost_of = {
                (r["solver"], r["instance"]): float(r["ert"])
                for r in rows
                if float(r["target"]) == target
            }
            costs = CostMatrix(
                tuple(labels),
                tuple(instances),
                tuple(tuple(cost_of[(s, p)] + share[s] for s in labels) for p in instances),
            )
            expected = performance_profile(costs)
            with open(out / "curves" / f"profile_target_{suffix}.csv", newline="") as fh:
                emitted = list(csv.DictReader(fh))
            for curve in expected:
                post_values = [
                    (float(r["tau"]), float(r["rho"]))
                    for r in emitted
                    if r["solver"] == curve.solver_id
                ][1::2]  # boundary pairs: second of each pair is the post-step value
                assert post_values == list(zip(curve.ratios, curve.rho))

    def test_tuning_changes_profiles_only(self, experiment, tmp_path):
        # the same runs with tuning declared: ERT, ECDF and median curves
        # never see tuning time, and the profiles do
        out, cfg = experiment
        tuned = tmp_path / "tuned"
        shutil.copytree(out, tuned)
        stored = json.loads((tuned / "effective_config.json").read_text())
        stored["tuning"] = {"method": "grid", "seconds": {"rs-a": 100.0}}
        (tuned / "effective_config.json").write_text(json.dumps(stored))
        assert main(["analyze", str(tuned)]) == 0
        changed = {
            p.name for p in [out / "ert_table.csv", *out.glob("curves/*.csv")]
            if p.read_bytes() != (tuned / p.relative_to(out)).read_bytes()
        }
        assert changed and all(name.startswith("profile_target_") for name in changed)

    def test_amortize_flag_is_a_usage_error(self, experiment):
        out, _ = experiment
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(out), "--amortize", "rs-a=1"])
        assert exc.value.code == 2

    def test_missing_run_log_is_runtime_error_naming_it(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        (out / "runs" / "rs-b" / "sphere-d2.jsonl").unlink()
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 1
        assert f"missing run log {out / 'runs' / 'rs-b' / 'sphere-d2.jsonl'}" in capsys.readouterr().err

    def test_missing_directory_is_runtime_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "void")]) == 1

    def test_reanalysis_removes_curves_it_no_longer_writes(self, tmp_path):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        assert main(["analyze", str(out)]) == 0
        assert (out / "curves" / "ecdf_rs-b.csv").exists()
        # every rs-b run becomes unparsable, so rs-b drops out of the analysis
        for instance in cfg["instances"]:
            log = out / "runs" / "rs-b" / f"{instance}.jsonl"
            lines = [json.loads(line) for line in log.read_text().splitlines()]
            for obj in lines:
                if obj["kind"] == "run_end":
                    obj["time_used"] = "bad"
            log.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        assert main(["analyze", str(out)]) == 0
        assert sorted(p.name for p in (out / "curves").glob("*.csv")) == [
            "ecdf_rs-a.csv",
            "median_rastrigin-d2.csv",
            "median_sphere-d2.csv",
            "profile_target_0p1.csv",
            "profile_target_1.csv",
            "profile_target_10.csv",
        ]

    def test_stored_config_is_validated_like_run(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        stored = json.loads((out / "effective_config.json").read_text())
        stored["metrics"]["bootstrap_samples"] = "200"
        (out / "effective_config.json").write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 2
        assert "metrics.bootstrap_samples" in capsys.readouterr().err

    def test_stored_config_that_is_not_json_is_a_config_error_naming_it(self, tmp_path, capsys):
        stored = tmp_path / "effective_config.json"
        stored.write_text('{"a": 1,\n')
        assert main(["analyze", str(tmp_path)]) == 2
        assert f"config error: {stored} is not valid JSON: " in capsys.readouterr().err

    def test_no_targets_writes_median_curves_only(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, mutate=lambda c: c.pop("targets"))
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        assert capsys.readouterr().out == "no targets configured: wrote median trajectories only\n"
        assert sorted(p.name for p in (out / "curves").iterdir()) == [
            "median_rastrigin-d2.csv",
            "median_sphere-d2.csv",
        ]
        assert not (out / "ert_table.csv").exists()


class TestCmdReport:
    def test_deleting_seeds_fails_item_5(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        main(["run", "--config", str(path)])
        out = Path(cfg["output_dir"])
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["checklist"]["statistics"]["master_seed"]
        manifest_path.write_text(json.dumps(manifest, indent=2))
        assert main(["report", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "item 5 (statistical rigor): FAIL" in stdout
        assert "checklist verdict: FAIL" in stdout

    def test_na_tuning_is_pass_with_note(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        main(["run", "--config", str(path)])
        assert main(["report", cfg["output_dir"]]) == 0
        stdout = capsys.readouterr().out
        assert "item 7 (tuning overhead): NA" in stdout
        assert "checklist verdict: PASS-with-note" in stdout

    def test_demo_manifest_claims_no_rank_sum_test(self, tmp_path, capsys):
        # run and analyze write no test result, so the manifest attests none
        out = tmp_path / "demo"
        assert main(["run", "--config", str(DEMO_PATH), "--out", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0
        statistics = json.loads((out / "manifest.json").read_text())["checklist"]["statistics"]
        assert statistics["nonparametric_test"] == {
            "status": "NA", "reason": "no artifact of run or analyze holds a test result"
        }
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "item 5 (statistical rigor): PASS" in capsys.readouterr().out.splitlines()

    def test_manifest_claims_only_the_metrics_analyze_writes(self, tmp_path, capsys):
        # without targets analyze writes median curves only (the real-clock
        # pipeline's shape); with them, all five kinds
        def real_clock_without_targets(cfg):
            del cfg["targets"]
            cfg.update(clock={"mode": "real"}, budget={"wall_time_limit": 0.01})

        path, cfg = write_config(tmp_path, mutate=real_clock_without_targets)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        produced = json.loads((out / "manifest.json").read_text())["checklist"]["metrics"]["produced"]
        assert produced == ["median_trajectory"]
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert "item 4 (performance metrics): PASS" in stdout
        assert stdout[-1] == "checklist verdict: PASS-with-note"

        (tmp_path / "targets").mkdir()
        path, cfg = write_config(tmp_path / "targets")
        assert main(["run", "--config", str(path)]) == 0
        manifest = json.loads((Path(cfg["output_dir"]) / "manifest.json").read_text())
        assert manifest["checklist"]["metrics"]["produced"] == [
            "ert", "time_to_target", "anytime_ecdf", "median_trajectory", "performance_profile"
        ]

    def test_unreadable_directory_is_runtime_error(self, tmp_path):
        assert main(["report", str(tmp_path / "void")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [('{"checklist": ', "is not valid JSON: "), ("[]", "must hold a JSON object")],
        ids=["invalid-json", "top-level-list"],
    )
    def test_manifest_that_is_not_a_json_object_is_runtime_error_naming_it(
        self, tmp_path, capsys, text, message
    ):
        (tmp_path / "manifest.json").write_text(text)
        assert main(["report", str(tmp_path)]) == 1
        assert f"error: {tmp_path / 'manifest.json'} {message}" in capsys.readouterr().err

    def test_checklist_that_is_a_list_fails_every_item(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"checklist": []}')
        assert main(["report", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        sections = ["budget", "restart_policy", "targets", "metrics", "statistics", "environment",
                    "tuning", "artifacts"]
        assert [line.split(": ", 1)[1] for line in lines[:8]] == [
            f"FAIL — section {key!r}: checklist is not a JSON object" for key in sections
        ]
        assert lines[8:] == ["checklist verdict: FAIL"]

    @pytest.mark.parametrize(
        "budget",
        [["wall_time_limit_seconds", "clock_mode"], 5],
        ids=["list-of-field-names", "number"],
    )
    def test_section_that_is_not_an_object_fails_its_own_item(self, tmp_path, capsys, budget):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["checklist"]["budget"] = budget
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "item 1 (budget specification): FAIL — section 'budget' is not a JSON object"
        assert [line.split(": ")[1] for line in lines[1:8]] == ["PASS"] * 5 + ["NA — no tuning performed", "PASS"]
        assert lines[8:] == ["checklist verdict: FAIL"]

    def test_unparseable_effective_config_fails_item_8_only(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        (out / "effective_config.json").write_text('{"budget": ')
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[7].startswith(
            "item 8 (reproducibility artifacts): FAIL — effective config effective_config.json "
            "is not valid JSON: "
        )
        assert [line.split(": ")[1] for line in lines[:7]] == ["PASS"] * 6 + ["NA — no tuning performed"]
        assert lines[8:] == ["checklist verdict: FAIL"]

    def test_deleted_effective_config_fails_item_8(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        (out / "effective_config.json").unlink()
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert (
            "item 8 (reproducibility artifacts): FAIL — effective config effective_config.json is missing\n"
        ) in stdout

    def test_item_8_reads_the_run_directorys_own_config(self, tmp_path, capsys):
        # an edited effective config, and a manifest whose config_file points
        # at an untouched copy outside the run directory: item 8 must audit
        # the file that analyze reads
        path, cfg = write_config(tmp_path)
        out = Path(cfg["output_dir"])
        assert main(["run", "--config", str(path)]) == 0
        stored = out / "effective_config.json"
        (tmp_path / "untouched.json").write_bytes(stored.read_bytes())
        edited = json.loads(stored.read_text())
        edited["budget"]["wall_time_limit"] = 5000.0
        stored.write_text(json.dumps(edited))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["checklist"]["artifacts"]["config_file"] = "../untouched.json"
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert (
            "item 8 (reproducibility artifacts): FAIL — "
            "config_hash does not match the stored effective config\n"
        ) in stdout
        assert stdout.endswith("checklist verdict: FAIL\n")


class TestCmdSimulate:
    def test_output_is_deterministic_and_structured(self, capsys):
        assert main(["simulate"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate"]) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.splitlines()
        pso_row = next(l for l in lines if l.startswith("pso "))
        heavy_row = next(l for l in lines if l.startswith("pso-heavy "))
        assert pso_row.split()[1] == "5"
        assert heavy_row.split()[1] == "1"
        assert "MISMATCH" not in first
        assert "rank-sum test" in first

    def test_output_matches_its_pinned_digest(self, capsys):
        # every bit simulate prints: PSO's path, the restart loop, ERT, the
        # medians and the rank-sum test; a replay in one process would not
        # see a drift that every process shares
        assert main(["simulate"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == "1e473e46e503e5cd4cdd5a1237a021e58f2674fae2f60362bf46377d87e1960f"

    def test_stderr_is_the_progress_line_only(self):
        # a fresh interpreter, so stderr is what a user sees: the metrics log
        # nothing, and simulate writes no profile to report on
        proc = subprocess.run(
            [sys.executable, "-m", "timefair.cli", "simulate"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        header = proc.stdout.splitlines()[0].removeprefix("scenario: ")
        assert proc.stderr == f"simulating the demo's PSO arms: {header}\n"

    def test_recheck_reads_the_logged_trajectories(self, monkeypatch, capsys):
        # a wrong first-hit time in metrics must show up against the recheck
        monkeypatch.setattr(metrics, "first_hits", lambda columns, ladder: np.full((len(ladder), columns.runs), math.inf))
        assert main(["simulate"]) == 0
        assert "MISMATCH" in capsys.readouterr().out


class TestScenarioProfiles:
    def test_baseline_profile_weakly_dominates_heavy(self, tmp_path):
        # analyze over the built-in scenario logs: for the hardest target
        # (5.0) and an attainable one (100.0), the restarted baseline's
        # profile must never fall below the heavy variant's.
        from timefair.protocol import run_plan

        plan = scenario_plan(repetitions=5)
        T = plan.budget.wall_time_limit
        ladder = plan.targets.values
        targets = {"rastrigin-d10": ladder}
        analysis = metrics.analyze(hits_by_pair(run_plan(plan), targets), T, targets, metrics.default_time_grid(T))
        for q in (5.0, 100.0):
            base, heavy = analysis.profiles[ladder.index(q)]
            for tau in (1.0, 1.5, 2.0, 5.0, 20.0, 1e6):
                assert base.rho_at(tau) >= heavy.rho_at(tau)


REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_PATH = REPO_ROOT / "configs" / "demo.json"


def test_demo_config_constant_is_not_mutated():
    # the demo is defined once, in the package's demo.json (configs/demo.json
    # links to it); every call parses a fresh copy that callers may mutate freely
    on_disk = json.loads(DEMO_PATH.read_text(encoding="utf-8"))
    cfg = demo_config()
    assert cfg == on_disk
    cfg["budget"]["wall_time_limit"] = -5
    assert demo_config() == on_disk


def test_scenario_plan_is_the_demos_pso_arms():
    demo = plan_from_config(validate_config(demo_config()))
    plan = scenario_plan(repetitions=7)
    assert plan.algorithms == tuple(a for a in demo.algorithms if a.kind == "pso")
    assert [a.label for a in plan.algorithms] == ["pso", "pso-heavy"]
    assert plan.repetitions == 7
    for name in ("instances", "budget", "targets", "master_seed", "clock"):
        assert getattr(plan, name) == getattr(demo, name)
