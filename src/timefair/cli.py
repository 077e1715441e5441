"""Command-line orchestration: run experiments, analyze logs, audit
manifests, and replay the built-in virtual-time comparison scenario.

Progress goes to stderr, data and tables to stdout. Exit codes are a
stable contract: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from . import __version__, metrics, report
from .clock import ClockSpec
from .core import Budget, TargetSpec
from .metrics import DEFAULT_BOOTSTRAP_SAMPLES, DEFAULT_CONFIDENCE, DEFAULT_GRID_POINTS, DEFAULT_RELATIVE_LADDER
from .protocol import AlgorithmSpec, ExperimentPlan, PlanError, best_of_restarts, run_plan
from .seeds import subseed

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing required key(s): {', '.join(missing)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    return float(value)


def _integer(value, path: str, *, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list")
    return value


def _label_ok(label: str) -> bool:
    return bool(label) and all(c.isalnum() or c in "._-" for c in label) and label[0].isalnum()


def validate_config(raw: dict) -> dict:
    """Check the JSON shape of a config (keys by path, value types, safe
    labels, metric and tuning options) and return the effective
    configuration with every default materialized; the dumped copy is what
    gets hashed. Value ranges are checked by the domain types that
    :func:`plan_from_config` builds."""
    _check_keys(
        raw,
        "config",
        required=("budget", "master_seed", "algorithms", "instances", "clock"),
        optional=("output_dir", "targets", "repetitions", "metrics", "parallel", "tuning"),
    )
    output_dir = raw.get("output_dir", "timefair-out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")

    budget_raw = raw["budget"]
    _check_keys(budget_raw, "budget", required=("wall_time_limit",), optional=("eval_cap",))
    budget = {
        "wall_time_limit": _number(budget_raw["wall_time_limit"], "budget.wall_time_limit"),
        "eval_cap": None
        if budget_raw.get("eval_cap") is None
        else _integer(budget_raw["eval_cap"], "budget.eval_cap"),
    }

    targets = None
    if raw.get("targets") is not None:
        t = raw["targets"]
        _check_keys(t, "targets", required=("kind",), optional=("values",))
        if "values" in t:
            values = [_number(v, "targets.values[]") for v in _list(t["values"], "targets.values")]
        else:
            values = list(DEFAULT_RELATIVE_LADDER) if t["kind"] == "relative" else []
        targets = {"kind": t["kind"], "values": values}

    clock_raw = raw["clock"]
    _check_keys(clock_raw, "clock", required=("mode",), optional=("cost_per_eval",))
    clock = {
        "mode": clock_raw["mode"],
        "cost_per_eval": _number(clock_raw.get("cost_per_eval", 0.0), "clock.cost_per_eval"),
    }

    algorithms = []
    for i, entry in enumerate(_list(raw["algorithms"], "algorithms")):
        path = f"algorithms[{i}]"
        _check_keys(entry, path, required=("label", "kind"), optional=("params", "wrappers"))
        label = entry["label"]
        if not isinstance(label, str) or not _label_ok(label):
            raise ConfigError(f"{path}.label must be a filesystem-safe identifier")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{path}.params must be an object")
        for k, v in params.items():
            _number(v, f"{path}.params.{k}")
        wrappers = entry.get("wrappers", {})
        if not isinstance(wrappers, dict):
            raise ConfigError(f"{path}.wrappers must be an object")
        if "synthetic_overhead" in wrappers:
            _number(wrappers["synthetic_overhead"], f"{path}.wrappers.synthetic_overhead")
        if "stagnation_restart" in wrappers:
            stagnation = wrappers["stagnation_restart"]
            spath = f"{path}.wrappers.stagnation_restart"
            _check_keys(stagnation, spath, required=("plateau_window", "plateau_epsilon"), optional=("max_restarts",))
            _integer(stagnation["plateau_window"], f"{spath}.plateau_window")
            _number(stagnation["plateau_epsilon"], f"{spath}.plateau_epsilon")
            if stagnation.get("max_restarts") is not None:
                _integer(stagnation["max_restarts"], f"{spath}.max_restarts")
        algorithms.append(
            {"label": label, "kind": entry["kind"], "params": params, "wrappers": dict(wrappers)}
        )

    instances = _list(raw["instances"], "instances")
    if not all(isinstance(instance_id, str) for instance_id in instances):
        raise ConfigError("instances must be a list of instance ids (strings)")

    metrics_raw = raw.get("metrics", {})
    _check_keys(metrics_raw, "metrics", required=(), optional=("time_grid_points", "bootstrap_samples", "confidence"))
    grid_points = metrics_raw.get("time_grid_points", DEFAULT_GRID_POINTS)
    bootstrap_samples = metrics_raw.get("bootstrap_samples", DEFAULT_BOOTSTRAP_SAMPLES)
    metric_options = {
        "time_grid_points": _integer(grid_points, "metrics.time_grid_points", minimum=2),
        "bootstrap_samples": _integer(bootstrap_samples, "metrics.bootstrap_samples", minimum=100),
        "confidence": _number(metrics_raw.get("confidence", DEFAULT_CONFIDENCE), "metrics.confidence"),
    }
    if not 0.0 < metric_options["confidence"] < 1.0:
        raise ConfigError("metrics.confidence must lie in (0, 1)")

    tuning = raw.get("tuning")
    if tuning is not None:
        _check_keys(tuning, "tuning", required=("method", "seconds"), optional=())
        if not isinstance(tuning["method"], str):
            raise ConfigError("tuning.method must be a string")
        if not isinstance(tuning["seconds"], dict):
            raise ConfigError("tuning.seconds must map solver labels to seconds")
        seconds = {k: _number(v, f"tuning.seconds.{k}") for k, v in tuning["seconds"].items()}
        if not all(math.isfinite(v) and v >= 0 for v in seconds.values()):
            raise ConfigError("tuning.seconds values must be finite and >= 0")
        unknown = sorted(set(seconds) - {a["label"] for a in algorithms})
        if unknown:
            raise ConfigError(f"tuning.seconds names unknown solver(s): {', '.join(unknown)}")
        tuning = {"method": tuning["method"], "seconds": seconds}

    parallel = raw.get("parallel", False)
    if not isinstance(parallel, bool):
        raise ConfigError("parallel must be a boolean")

    return {
        "output_dir": output_dir,
        "budget": budget,
        "targets": targets,
        "repetitions": _integer(raw.get("repetitions", 1), "repetitions"),
        "master_seed": _integer(raw["master_seed"], "master_seed", minimum=0),
        "clock": clock,
        "algorithms": algorithms,
        "instances": list(instances),
        "metrics": metric_options,
        "tuning": tuning,
        "parallel": parallel,
    }


def plan_from_config(config: dict) -> ExperimentPlan:
    """Build the plan from an effective configuration; the domain types'
    range errors surface as :class:`ConfigError`."""
    try:
        return ExperimentPlan(
            algorithms=tuple(AlgorithmSpec(**a) for a in config["algorithms"]),
            instances=tuple(config["instances"]),
            budget=Budget(**config["budget"]),
            targets=None
            if config["targets"] is None
            else TargetSpec(kind=config["targets"]["kind"], values=tuple(config["targets"]["values"])),
            repetitions=config["repetitions"],
            master_seed=config["master_seed"],
            clock=ClockSpec(**config["clock"]),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(path) -> dict:
    """The JSON object in the file at `path`; a file that cannot be read,
    is not JSON or holds no object is a :class:`ConfigError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    return raw


def demo_config() -> dict:
    """A fresh parse of the bundled demo, the package's ``demo.json``
    (``configs/demo.json`` in the source checkout links to it)."""
    with resources.as_file(resources.files(__package__) / "demo.json") as path:
        return _read_config(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    raw = _read_config(args.config)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.parallel:
        raw["parallel"] = True
    config = validate_config(raw)
    plan = plan_from_config(config)

    out_dir = Path(config["output_dir"])
    if (out_dir / report.MANIFEST_NAME).exists() or report.run_logs_on_disk(out_dir):
        raise ConfigError(f"{out_dir} already holds a run; choose a new output directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    _progress(f"running {len(plan.algorithms)} algorithm(s) on {len(plan.instances)} instance(s), "
              f"R={plan.repetitions}, T={plan.budget.wall_time_limit}s ({plan.clock.mode} clock)")
    grouped = run_plan(plan, parallel=config["parallel"], progress=_progress)

    for spec in plan.algorithms:
        params_echo = spec.describe()
        for instance_id in plan.instances:
            records = grouped[(spec.label, instance_id)]
            report.write_run_log(records, report.run_log_path(out_dir, spec.label, instance_id), params=params_echo)
    report.write_effective_config(config, out_dir)
    manifest = report.build_manifest(plan, grouped, out_dir, effective_config=config)
    report.write_manifest(manifest, out_dir)
    n_runs = sum(len(r) for r in grouped.values())
    _progress(f"wrote {n_runs} run(s) and {report.MANIFEST_NAME} to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    out_dir = Path(args.out_dir)
    config_path = out_dir / report.EFFECTIVE_CONFIG_NAME
    if not config_path.exists():
        raise FileNotFoundError(f"{config_path} not found; run the experiment first")
    config = validate_config(_read_config(config_path))
    plan = plan_from_config(config)
    T = plan.budget.wall_time_limit
    labels = [spec.label for spec in plan.algorithms]
    metric_options = config["metrics"]

    grid = metrics.default_time_grid(T, metric_options["time_grid_points"])
    bootstrap = dict(bootstrap_samples=metric_options["bootstrap_samples"],
                     confidence=metric_options["confidence"], seed=subseed(plan.master_seed, 1))
    medians: dict[str, dict] = {instance_id: {} for instance_id in plan.instances}
    hits = {}  # (label, instance): first hits, [target, run]
    dir_issues = report.run_dir_issues(out_dir, plan)  # each names its log or the manifest
    if dir_issues and args.strict_logs:
        raise report.LogParseError(dir_issues[0])
    for msg in dir_issues:
        _progress(f"log issue: {msg}")
    # one pair at a time, label-major (pairs of equal run count in a row share
    # their bootstrap counts); only a log's columns outlive its parse
    for label in labels:
        for instance_id in plan.instances:
            path = report.run_log_path(out_dir, label, instance_id)
            parsed = report.parse_run_log(path) if path.exists() else report.ParseResult.empty()
            name = path.relative_to(out_dir)  # runs/<label>/<instance>.jsonl: one per arm
            whole_log = report.log_issues(parsed, label, instance_id, plan.repetitions)
            issues = parsed.issues + whole_log
            if issues and args.strict_logs:
                raise report.LogParseError(f"{name}: {issues[0]}")
            for msg in parsed.issues:
                _progress(f"log issue: {name}: {msg}")
            if parsed.skipped_runs:
                _progress(f"{name}: skipped {parsed.skipped_runs} malformed run(s)")
            for msg in whole_log:
                _progress(f"log issue: {name}: {msg}")
            columns = parsed.columns
            del parsed
            if columns.runs:
                medians[instance_id][label] = metrics.median_trajectory(columns, grid, **bootstrap)
            hits[(label, instance_id)] = metrics.first_hits(columns, plan.ladders[instance_id])
            del columns  # freed before the next log is read

    curves_dir = out_dir / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)
    for stale in curves_dir.glob("*.csv"):  # an earlier analysis may have had more solvers
        stale.unlink()
    for instance_id, curves in medians.items():  # one CSV per instance, all solvers
        report.emit_median_csv(curves, curves_dir / f"median_{instance_id}.csv")

    if plan.targets is None:
        print("no targets configured: wrote median trajectories only")
        return EXIT_OK

    tuning_time = config["tuning"]["seconds"] if config["tuning"] is not None else {}
    analysis = metrics.analyze(hits, T, plan.ladders, grid, tuning_time)
    report.emit_ert_table(analysis.ert, out_dir / "ert_table.csv")
    for label, curve in analysis.ecdf.items():
        report.emit_ecdf_csv(curve, curves_dir / f"ecdf_{label}.csv")
    for ladder_value, curves in zip(plan.targets.values, analysis.profiles):
        # the value's repr, lossless, so distinct ladder values never share a file
        name = "profile_target_" + repr(ladder_value).removesuffix(".0").replace(".", "p").replace("-", "m") + ".csv"
        report.emit_profile_csv(curves, curves_dir / name)
        if excluded := curves[0].excluded:  # every solver's curve names the same instances
            _progress(f"{name}: excluded {len(excluded)} all-failed instance(s): {', '.join(excluded)}")
    print(f"{'solver':<16} {'instance':<18} {'target':>10} {'ert':>12} {'success':>8}")
    for (label, instance_id, q), result in analysis.ert.items():
        ert_text = "inf" if math.isinf(result.ert) else f"{result.ert:.6g}"
        print(f"{label:<16} {instance_id:<18} {q:>10.6g} {ert_text:>12} {result.success_rate:>8.2f}")
    _progress(f"wrote ert_table.csv and curves/ to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    manifest_path = out_dir / report.MANIFEST_NAME
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} must hold a JSON object")
    items = report.audit_manifest(manifest, out_dir)
    for item in items:
        note = f" — {item.note}" if item.note else ""
        print(f"item {item.number} ({item.name}): {item.status}{note}")
    verdict = report.manifest_verdict(items)
    print(f"checklist verdict: {verdict}")
    return EXIT_OK if verdict != "FAIL" else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def scenario_plan(repetitions: int = 20) -> ExperimentPlan:
    """The demo's PSO arms, a baseline at 10 s/run vs a 5x-overhead variant
    at 50 s/run under T = 50 s of virtual time (costs are dyadic, so run
    durations are float-exact), at `repetitions` repetitions."""
    config = demo_config()
    config["algorithms"] = [a for a in config["algorithms"] if a["kind"] == "pso"]
    config["repetitions"] = repetitions
    return plan_from_config(validate_config(config))


def _ert_recheck(records, q: float, T: float) -> float:
    """ERT to `q` straight from the records' columns, written apart from
    :mod:`metrics`: a run succeeds at its first point with best_f <= q if
    that point lies within T, and a failed run costs T."""
    hits = [next((t for t, f in zip(r.elapsed, r.best_f) if f <= q), math.inf) for r in records]
    wins = [t for t in hits if t <= T]
    return (sum(wins) + T * (len(hits) - len(wins))) / len(wins) if wins else math.inf


def cmd_simulate(args) -> int:
    plan = scenario_plan()
    T = plan.budget.wall_time_limit
    instance_id = plan.instances[0]
    header = (f"T={T:g}s {plan.clock.mode}, {instance_id}, R={plan.repetitions}, targets "
              + ", ".join(f"{q:g}" for q in plan.targets.values))
    _progress(f"simulating the demo's PSO arms: {header}")
    grouped = run_plan(plan)

    print(f"scenario: {header}")
    print()
    print(f"{'algorithm':<12} {'runs/rep':>9} {'median single-run':>18} {'median best-of-restarts':>24}")
    best_samples = {}
    for spec in plan.algorithms:
        records = grouped[(spec.label, instance_id)]
        runs_per_rep = len(records) // plan.repetitions
        single = [r.final_best for r in records if r.run_index == 0]
        best_of = [
            best_of_restarts([r for r in records if r.repetition == rep])
            for rep in range(plan.repetitions)
        ]
        best_samples[spec.label] = best_of
        print(
            f"{spec.label:<12} {runs_per_rep:>9} {statistics.median(single):>18.4f} "
            f"{statistics.median(best_of):>24.4f}"
        )
    print()
    print(f"{'algorithm':<12} {'target':>8} {'ert':>12} {'success':>8}  recheck")
    columns = {pair: metrics.RunColumns.of(records) for pair, records in grouped.items()}
    hits = {pair: metrics.first_hits(runs, plan.ladders[pair[1]]) for pair, runs in columns.items()}
    analysis = metrics.analyze(hits, T, plan.ladders, metrics.default_time_grid(T))
    for (label, instance, q), result in analysis.ert.items():
        oracle = _ert_recheck(grouped[(label, instance)], q, T)
        agree = math.isclose(result.ert, oracle, rel_tol=1e-12)  # inf is close to inf only
        ert_text = "inf" if math.isinf(result.ert) else f"{result.ert:.4f}"
        print(
            f"{label:<12} {q:>8g} {ert_text:>12} {result.success_rate:>8.2f}  "
            f"{'ok' if agree else 'MISMATCH'}"
        )
    baseline, variant = best_samples
    test = metrics.rank_sum_test(best_samples[baseline], best_samples[variant])
    print()
    print(
        f"rank-sum test (best-of-restarts, {baseline} vs {variant}): U={test.statistic:g}, "
        f"p={test.p_value:.4g} [{test.method}]"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timefair",
        description="Benchmark black-box optimizers under a fixed wall-clock budget.",
    )
    parser.add_argument("--version", action="version", version=f"timefair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment plan from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_run.add_argument("--out", help="output directory (overrides config output_dir)")
    p_run.add_argument("--seed", type=int, help="override the master seed (re-derives all run seeds)")
    p_run.add_argument("--parallel", action="store_true", help="run repetitions in parallel (virtual clock only)")
    p_run.set_defaults(func=cmd_run)

    p_analyze = sub.add_parser("analyze", help="compute metrics and curve CSVs from run logs")
    p_analyze.add_argument("out_dir", help="experiment output directory")
    p_analyze.add_argument("--strict-logs", action="store_true", help="abort on a log's first issue")
    p_analyze.set_defaults(func=cmd_analyze)

    p_report = sub.add_parser("report", help="audit the manifest against the reporting checklist")
    p_report.add_argument("out_dir", help="experiment output directory")
    p_report.set_defaults(func=cmd_report)

    p_sim = sub.add_parser("simulate", help="run the built-in deterministic comparison scenario")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PlanError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure: diagnostic + exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
