"""The names the benchmark (perfbench/) looks up in the program.

perfbench traces layers by wrapping attributes by name, calls a few
functions directly (its child process), and hides its sampler's time from
real-clock runs by patching ``RealClock.now``. These tests keep all three
working when the program changes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from timefair.clock import ClockSpec, RealClock
from timefair.core import Budget
from timefair.protocol import AlgorithmSpec, ExperimentPlan, run_time_fair

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_install_finds_every_traced_name_but_the_retired_ones():
    # virtual time has no per-evaluation charge, the synthetic per-iteration
    # cost is charged by the clock, not by a wrapper's step, a point is
    # evaluated as a 1-row batch, and first hits come from metrics.first_hits
    # over a pair's columns: these four are the names the tracer may not
    # find (their layers read 0)
    script = (
        "import json; from tracer import Tracer, install; "
        "t = Tracer(); install(t); print(json.dumps(t.missing))"
    )
    path = f"{ROOT / 'src'}:{ROOT / 'perfbench'}"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [
        "protocol.RunEvaluator.evaluate",
        "clock.charge",
        "optimizers.wrapper.synthetic-overhead",
        "metrics.time_to_target",
    ]


def _perfbench(args, tmp_path):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}"},
        cwd=tmp_path,
        timeout=120,
    )


@pytest.mark.parametrize("mode", [["probe"], ["setup", str(ROOT / "configs" / "demo.json"), "1"]])
def test_child_modes_call_the_program_directly(mode, tmp_path):
    # besides the traced names, perfbench's child calls the program itself:
    # the CLI import, the environment probe, the config path, and
    # ProblemInstance.evaluate through its calibration
    out = _perfbench([str(ROOT / "perfbench" / "child.py"), "result.json", *mode], tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads((tmp_path / "result.json").read_text())["exit_code"] == 0


def test_child_calibration_times_the_bare_objective(tmp_path):
    script = "import json, child; print(json.dumps(child._calibrate('sphere-d5', 40)))"
    out = _perfbench(["-c", script], tmp_path)
    assert out.returncode == 0, out.stderr
    timings = json.loads(out.stdout.splitlines()[-1])
    assert sorted(timings) == ["batch_us", "single_us"]
    assert all(len(values) == 5 and min(values) > 0 for values in timings.values())


def test_real_mode_time_follows_real_clock_now(monkeypatch):
    # all real-mode time goes through RealClock.now: a fake clock that
    # ticks a fixed step per read scales every time by that step
    def run(tick):
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("pso", "pso", {"swarm_size": 6}),),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=40.0 * tick),
            targets=None,
            repetitions=1,
            master_seed=5,
            clock=ClockSpec(mode="real"),
        )
        reads = iter(range(10**6))
        monkeypatch.setattr(RealClock, "now", lambda self: tick * next(reads))
        return run_time_fair(plan, "pso", "sphere-d2", 0)

    unit = run(1.0)
    quarter = run(0.25)
    assert sum(r.time_used for r in unit) >= 40.0
    assert all(r.time_used == int(r.time_used) > 0 for r in unit)
    scaled = [
        (r.time_used / 4, r.max_step_seconds / 4, [t / 4 for t in r.elapsed], r.evals, r.best_f)
        for r in unit
    ]
    assert scaled == [(r.time_used, r.max_step_seconds, list(r.elapsed), r.evals, r.best_f) for r in quarter]


def test_cli_calls_the_traced_config_functions_as_its_own_globals(monkeypatch, tmp_path, capsys):
    # perfbench's cli.validate_config_s and cli.plan_from_config_s come from
    # wrappers set on the cli module: each command must look the two up there
    from timefair import cli

    calls = {}

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    counting("validate_config")
    counting("plan_from_config")
    config = cli.demo_config()
    config.update(repetitions=1, instances=config["instances"][:1], output_dir=str(tmp_path / "out"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    commands = (["run", "--config", str(tmp_path / "config.json")], ["analyze", str(tmp_path / "out")], ["simulate"])
    for argv in commands:
        calls.clear()
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert calls == {"validate_config": 1, "plan_from_config": 1}, argv[0]
