"""timefair benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload {demo,restart-sweep,real-clock}
                             --seed N --seconds S --trace {0,1}

Every subcommand runs through ``timefair.cli.main`` in a fresh child
process (child.py), one process at a time and never with ``--parallel``.
The benchmark repeats cycles until S seconds have passed (at least two, so
a virtual replay is compared with the first cycle) and reports the median
of each metric over the cycles. Every child and every correctness check
counts as one operation.

Times are scaled to a nominal machine speed. On a shared host the same
code runs up to 1.5x slower for minutes at a time, when other tenants load
the same cores; a median over one run follows that load. So each child
also times the three reference kernels of speed.py, during its job or right
after it, and every time (and the evaluations per second) is multiplied by
``checks.speed_scale`` of those kernels. A real-clock ``run`` lasts its
budgets whatever the speed, so its ``run_s`` is not scaled, but its µs per
evaluation are. The unscaled times are in the record.

A cycle runs set-up twice, the workload's own ``run`` -> ``analyze`` ->
``report`` pipeline, ``simulate``, and two ``run``s of the real-clock
config. Each workload must report every end-to-end metric, so ``simulate``
(it takes no input) and the real-clock runs are part of every workload;
the real-clock workload's own pipeline starts with the first of them, and
its ``evals_per_s`` pools both. With --trace 1 only the
stages that define the workload run (``simulate`` belongs to ``demo``), in
alternating untraced and traced cycles; the difference is the tracing
overhead.

The last line of stdout is the JSON result. The full record (environment
probe, nproc, git commit, per-cycle values) and the spans of the last
traced cycle go to ``.perfbench-work/results/``.

A child's ``ru_maxrss`` starts from the peak RSS of the process that
spawned it, so this process keeps numpy and other bulk out of its own
memory in end-to-end runs; its own peak is in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("demo", "restart-sweep", "real-clock")
HARD_LIMIT_S = 170.0  # the whole process must end within 180 s
SETUPS_PER_CYCLE = 2
REAL_RUNS_PER_CYCLE = 2  # real-clock runs, the real-clock workload's own included
REAL_CALIBRATION = f"{workloads.REAL_INSTANCE}:{workloads.REAL_SWARM}"


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


class Config:
    """One generated config file and how ``run`` is invoked on it."""

    def __init__(self, path: Path, data: dict, run_seed: int | None = None):
        self.path = path
        self.data = data
        self.run_seed = run_seed  # the demo takes its seed as ``run --seed``
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")

    @property
    def virtual(self) -> bool:
        return self.data["clock"]["mode"] == "virtual"


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, hard_deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.n_children = 0
        self.reference_digests = None
        self.timings: list[dict] = []  # unscaled time and speed scale per child
        real = Config(work / "real-clock.json", workloads.real_clock_config(seed))
        if workload == "demo":
            demo = workloads.demo_config(ROOT)
            self.own = Config(work / "demo.json", demo, run_seed=seed)
        elif workload == "restart-sweep":
            self.own = Config(work / "restart-sweep.json", workloads.restart_sweep_config(seed))
        else:
            self.own = real
        self.real = real

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
            print(f"perfbench: check failed: {name}", file=sys.stderr)
        return ok

    def child(self, *args: str, spans: Path | None = None) -> tuple[dict | None, float]:
        """Run child.py; returns (its result or None, peak RSS in MB from
        wait4). One operation, failed unless the child and the CLI exit 0."""
        self.n_children += 1
        result_path = self.work / f"child{self.n_children}.json"
        log_path = self.work / f"child{self.n_children}.log"
        flags = ["--spans", str(spans)] if spans is not None else []
        argv = [sys.executable, "-E", "-s", str(CHILD), str(result_path), *flags, *args]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(self.hard_deadline - time.monotonic(), 0.01))
            _, status, rusage = os.wait4(pid, 0)
        except ChildTimeout:
            os.kill(pid, signal.SIGKILL)
            _, status, rusage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        data = None
        if os.waitstatus_to_exitcode(status) == 0 and result_path.exists():
            data = json.loads(result_path.read_text(encoding="utf-8"))
        label = " ".join(a for a in args if str(self.work) not in a)
        if data is not None and "reference" in data:
            data["scale"] = checks.speed_scale(data["reference"])
            self.timings.append({"child": label, "unscaled_s": data["seconds"],
                                 "scale": data["scale"],
                                 "samples": len(data["reference"]["python_s"])})
            data["seconds"] *= data["scale"]
        if not self.check(f"exit 0: {label}", data is not None and data["exit_code"] == 0):
            print(data["stderr_tail"] if data else log_path.read_text(errors="replace")[-2000:],
                  file=sys.stderr)
            data = None
        return data, rusage.ru_maxrss / 1024.0

    # -- stages -------------------------------------------------------------

    def run_stage(self, config: Config, out: Path, spans: Path | None,
                  calibrate: bool = False) -> dict:
        argv = ["cli", "run", "--config", str(config.path), "--out", str(out)]
        if config.run_seed is not None:
            argv += ["--seed", str(config.run_seed)]
        if calibrate:
            argv = ["--calibrate", REAL_CALIBRATION, *argv]
        res, rss = self.child(*argv, spans=spans)
        stage = {"rss": rss}
        if res is None:
            return stage
        data = config.data
        T = data["budget"]["wall_time_limit"]
        runs = checks.read_logs(out)
        totals = checks.budget_totals(runs)
        groups = len(data["algorithms"]) * len(data["instances"]) * data["repetitions"]
        if config.virtual:
            self.check("virtual budget: sum of time_used <= T per repetition",
                       len(totals) == groups and all(v <= T for v in totals.values()))
            digests = checks.log_digests(out)
            if self.reference_digests is None:
                self.reference_digests = digests
            else:
                self.check("replay: identical log_digests", digests == self.reference_digests)
        else:
            self.check("real budget: every repetition spends the whole T",
                       len(totals) == groups and all(v >= T for v in totals.values()))
        stage.update(
            # a real-clock run lasts its budgets whatever the machine's speed
            run_s=res["seconds"] if config.virtual else res["seconds"] / res["scale"],
            evals_per_s=sum(r["evals_used"] for r in runs) / res["seconds"],
            log_bytes=sum(p.stat().st_size for p in out.glob("runs/*/*.jsonl")),
            runs=runs,
        )
        if calibrate:
            cal = res["calibration"]
            objective_us = {
                "random-search": statistics.median(cal["single_us"]),
                "pso": statistics.median(cal["batch_us"]),
            }
            stage["real"] = [
                checks.real_clock_figures([r for r in runs if r["repetition"] == rep], objective_us,
                                          res["scale"])
                for rep in range(data["repetitions"])
            ]
        return stage

    def analyze_stage(self, config: Config, out: Path, runs: list, spans: Path | None,
                      memory: bool = False) -> dict:
        flags = ["--memory"] if memory else []
        res, rss = self.child(*flags, "cli", "analyze", str(out), spans=spans)
        stage = {"rss": rss}
        if res is None:
            return stage
        stage["analyze_s"] = res["seconds"]
        data = config.data
        targets = workloads.resolved_targets(data)
        if targets is None:
            curve = out / "curves" / f"median_{data['instances'][0]}.csv"
            solvers = {line.rsplit(",", 1)[-1] for line in curve.read_text().splitlines()[1:]}
            self.check("analyze: a median curve for every solver",
                       solvers == {a["label"] for a in data["algorithms"]})
        else:
            oracle = checks.ert_oracle(runs, targets, data["budget"]["wall_time_limit"])
            self.check("analyze: ert_table.csv equals the ERT oracle",
                       checks.read_ert_table(out / "ert_table.csv") == oracle)
        return stage

    def report_stage(self, config: Config, out: Path, spans: Path | None) -> dict:
        res, rss = self.child("cli", "report", str(out), spans=spans)
        stage = {"rss": rss}
        if res is None:
            return stage
        stage["report_s"] = res["seconds"]
        expected_na = set()
        if config.data.get("targets") is None:
            expected_na.add(3)
        if config.data.get("tuning") is None:
            expected_na.add(7)
        self.check("report: every item PASS or NA for a reason the config gives",
                   checks.report_ok(res["stdout"], expected_na))
        return stage

    def simulate_stage(self, spans: Path | None) -> dict:
        res, rss = self.child("cli", "simulate", spans=spans)
        stage = {"rss": rss}
        if res is None:
            return stage
        stage["simulate_s"] = res["seconds"]
        rechecks = checks.simulate_rechecks(res["stdout"])
        self.check("simulate: every recheck reads ok",
                   len(rechecks) == 10 and all(r == "ok" for r in rechecks))
        return stage

    # -- cycles ---------------------------------------------------------------

    def cycle(self, index: int, full: bool, traced: bool) -> dict:
        """One pass over the stages; returns its values by metric.

        ``full`` (end-to-end runs): every stage. Otherwise (--trace 1): the
        workload's own stages, traced or not."""
        d = self.work / f"cycle{index}"
        d.mkdir()
        span_files: list[Path] = []

        def spans(phase: str) -> Path | None:
            if not traced:
                return None
            span_files.append(d / f"spans-{phase}.npz")
            return span_files[-1]

        values: dict = {"setup_s": [], "rss": [], "real": [], "more_evals_per_s": []}
        if full:
            for _ in range(SETUPS_PER_CYCLE):
                res, rss = self.child("setup", str(self.own.path), str(self.seed))
                values["rss"].append(rss)
                if res is not None:
                    values["setup_s"].append(res["seconds"])
        out = d / "out"
        run = self.run_stage(self.own, out, spans("run"), calibrate=full and not self.own.virtual)
        stages = [
            run,
            self.analyze_stage(self.own, out, run.get("runs", []), spans("analyze")),
            self.report_stage(self.own, out, spans("report")),
        ]
        if full or self.workload == "demo":
            stages.append(self.simulate_stage(spans("simulate")))
        if full:
            for k in range(REAL_RUNS_PER_CYCLE - (0 if self.own.virtual else 1)):
                real = self.run_stage(self.real, d / f"real{k}", None, calibrate=True)
                stages.append({"rss": real["rss"], "real": real.get("real", [])})
                if not self.own.virtual and "evals_per_s" in real:
                    # the same config as the own run: pool its rate
                    values["more_evals_per_s"].append(real["evals_per_s"])
        run.pop("runs", None)
        for stage in stages:
            values["rss"].append(stage.pop("rss"))
            values["real"] += stage.pop("real", [])
            values.update(stage)
        values["spans"] = [str(p) for p in span_files if p.exists()]
        own = ["run_s", "analyze_s", "report_s"] + (["simulate_s"] if self.workload == "demo" else [])
        values["own_s"] = sum(values.get(k, 0.0) for k in own)
        return values


def end_to_end(cycles: list[dict]) -> dict[str, float]:
    """Medians over the cycles; set-up and the real-clock figures pool
    every sample (two set-ups, one per repetition)."""

    def med(key):
        return statistics.median(c[key] for c in cycles if key in c)

    reals = [r for c in cycles for r in c["real"]]
    return {
        "setup_s": statistics.median(s for c in cycles for s in c["setup_s"]),
        "run_s": med("run_s"),
        "analyze_s": med("analyze_s"),
        "pipeline_s": statistics.median(
            c["run_s"] + c["analyze_s"] + c["report_s"]
            for c in cycles if {"run_s", "analyze_s", "report_s"} <= c.keys()
        ),
        "simulate_s": med("simulate_s"),
        "evals_per_s": statistics.median(
            v for c in cycles if "evals_per_s" in c
            for v in [c["evals_per_s"], *c["more_evals_per_s"]]
        ),
        "peak_rss_mb": statistics.median(max(c["rss"]) for c in cycles),
        **{key: statistics.median(r[key] for r in reals) for key in reals[0]},
    }


def per_layer(bench: Bench, cycles: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced cycles, the tracemalloc peak from one more
    ``analyze`` of the last output, and the tracing overhead: the median
    own-stage time of traced over untraced cycles."""
    from layers import Spans, Totals, layer_metrics  # numpy: trace runs only

    per_cycle = []
    for c in traced:
        m = layer_metrics(Totals([Spans.load(p) for p in c["spans"]]))
        m["report.log_bytes"] = c["log_bytes"]
        per_cycle.append(m)
    result = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    out = Path(traced[-1]["spans"][0]).parent / "out"
    spans = bench.work / "spans-memory.npz"
    bench.analyze_stage(bench.own, out, checks.read_logs(out), spans, memory=True)
    result["metrics.median_trajectory_peak_mb"] = Totals([Spans.load(spans)]).peak_units(
        "metrics.median_trajectory"
    )
    untraced_s = statistics.median(c["own_s"] for c in cycles if not c["spans"])
    traced_s = statistics.median(c["own_s"] for c in traced)
    result["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return result


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "NA"
    return out.stdout.strip() if out.returncode == 0 else "NA"


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "timefair" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'timefair'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    signal.signal(signal.SIGALRM, _on_alarm)
    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work, started + HARD_LIMIT_S)
        probe, _ = bench.child("probe")
        if probe is None:
            print("perfbench: the program does not import", file=sys.stderr)
            return 2

        deadline = time.monotonic() + args.seconds
        cycles: list[dict] = []
        traced: list[dict] = []
        longest = 0.0
        # a cycle starts only if at least half of it fits before the deadline
        while len(cycles) < 2 or time.monotonic() + longest / 2 < deadline:
            if time.monotonic() + longest > started + HARD_LIMIT_S - 10:
                break
            t0 = time.monotonic()
            is_traced = bool(args.trace) and len(cycles) % 2 == 1
            values = bench.cycle(len(cycles), full=not args.trace, traced=is_traced)
            longest = max(longest, time.monotonic() - t0)
            cycles.append(values)
            if is_traced:
                traced.append(values)
        try:
            if args.trace:
                metrics = per_layer(bench, cycles, traced)
            else:
                metrics = end_to_end(cycles)
        except (KeyError, IndexError, statistics.StatisticsError) as exc:
            print(f"perfbench: metrics incomplete after failed operations: {exc!r}", file=sys.stderr)
            metrics = {}

        results_dir = base / "results"
        results_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if traced:
            for p in traced[-1]["spans"]:
                shutil.copy(p, results_dir / f"{stem}-{Path(p).name}")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
            "environment": probe["probe"],
            "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cycles": [{k: v for k, v in c.items() if k != "spans"} for c in cycles],
            "timings": bench.timings,
            "failures": bench.failures,
            "metrics": metrics,
        }
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} cycles={len(cycles)} "
          f"commit={record['git_commit']} nproc={record['nproc']}")
    print(f"perfbench: environment {json.dumps(record['environment'])}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not bench.failed:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 3
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
