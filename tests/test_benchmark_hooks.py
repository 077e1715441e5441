"""The names the benchmark (perfbench/) looks up in the program.

perfbench traces layers by wrapping attributes by name, and hides its
sampler's time from real-clock runs by patching ``RealClock.now``. These
tests keep both working when the program changes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from timefair.clock import ClockSpec, RealClock
from timefair.core import Budget
from timefair.protocol import AlgorithmSpec, ExperimentPlan, run_time_fair

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_install_finds_every_traced_name_but_clock_charge():
    # virtual time has no per-evaluation charge any more: clock.charge is
    # the one name the tracer may not find (its layer metrics read 0)
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
    assert json.loads(out.stdout.splitlines()[-1]) == ["clock.charge"]



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
        (r.time_used / 4, r.max_step_seconds / 4, [(p.elapsed / 4, p.evals, p.best_f) for p in r.trajectory])
        for r in unit
    ]
    assert scaled == [
        (r.time_used, r.max_step_seconds, [(p.elapsed, p.evals, p.best_f) for p in r.trajectory])
        for r in quarter
    ]
