"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line (use ``pytest tests/test_acceptance.py -v -s``).
"""

import csv
import json
import math
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from timefair.cli import demo_config, main, scenario_plan
from timefair.core import CostMatrix, Termination
from timefair.metrics import (
    anytime_ecdf,
    ert,
    performance_profile,
)
from timefair.problems import get_problem
from timefair.protocol import best_of_restarts, run_plan, run_time_fair
from timefair.report import parse_run_log, write_run_log

from conftest import CATALOG_OPTIMA, optimum_point, pair_times, random_record, time_to_target


def _report(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number}: PASS ({detail})")


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("demo")
    cfg = demo_config()
    cfg["output_dir"] = str(tmp / "out")
    config_path = tmp / "demo.json"
    config_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["analyze", cfg["output_dir"]]) == 0
    return Path(cfg["output_dir"])


def test_criterion_1_ert_oracle_equivalence():
    rng = np.random.default_rng(1001)
    with Stopwatch() as sw:
        for _ in range(1000):
            T = float(rng.uniform(0.5, 100.0))
            runs = int(rng.integers(1, 51))
            times = [
                None if rng.random() < 0.35 else float(rng.uniform(0.0, T))
                for _ in range(runs)
            ]
            result = ert(times, T)
            # independent brute force over clamped time sums, exact rationals
            total = Fraction(0)
            successes = 0
            for t in times:
                if t is None:
                    total += Fraction(T)
                else:
                    total += Fraction(min(t, T))
                    successes += 1
            assert result.successes == successes
            assert result.success_rate == successes / runs
            if successes == 0:
                assert math.isinf(result.ert)
            else:
                assert math.isclose(result.ert, float(total / successes), rel_tol=1e-12)
    assert sw.elapsed < 1.0
    _report(1, f"1000 fixtures vs brute-force oracle in {sw.elapsed:.2f}s")


def test_criterion_2_scenario_structure():
    plan = scenario_plan(repetitions=20)
    with Stopwatch() as sw:
        grouped = run_plan(plan)
    baseline = grouped[("pso", "rastrigin-d10")]
    heavy = grouped[("pso-heavy", "rastrigin-d10")]
    single_finals = []
    best_of_finals = []
    for rep in range(20):
        base_rep = [r for r in baseline if r.repetition == rep]
        heavy_rep = [r for r in heavy if r.repetition == rep]
        # k = floor(T / tau): 50/10 and 50/50
        assert len(base_rep) == 5
        assert len(heavy_rep) == 1
        assert all(r.termination is not Termination.BUDGET_EXHAUSTED for r in base_rep)
        best = best_of_restarts(base_rep)
        for record in base_rep:
            assert best <= record.final_best
        single_finals.append(base_rep[0].final_best)
        best_of_finals.append(best)
    assert statistics.median(best_of_finals) <= statistics.median(single_finals)
    assert sw.elapsed < 5.0
    _report(
        2,
        f"5 vs 1 runs over 20 repetitions; median best-of-restarts "
        f"{statistics.median(best_of_finals):.2f} <= median single-run "
        f"{statistics.median(single_finals):.2f}; {sw.elapsed:.2f}s",
    )


def test_criterion_3_ert_fixture():
    result = ert([18.0] * 19 + [None], T=50.0)
    expected = 392.0 / 19.0
    assert abs(result.ert - expected) <= 1e-9
    assert result.success_rate == 0.95
    _report(3, f"ERT(19x18s + 1 failure, T=50) = {result.ert:.6f} = 392/19")


def test_criterion_4_performance_profile():
    with Stopwatch() as sw:
        costs = CostMatrix(("A", "B"), ("p1", "p2"), ((2.0, 4.0), (6.0, 3.0)))
        curve_a, curve_b = performance_profile(costs)
        assert curve_a.rho_at(1.0) == 0.5 and curve_a.rho_at(2.0) == 1.0
        assert curve_b.rho_at(1.0) == 0.5 and curve_b.rho_at(2.0) == 1.0
        rng = np.random.default_rng(4)
        probe_taus = (1.0, 1.4, 2.0, 3.3, 11.0, 1e5)
        for _ in range(50):
            rows = tuple(
                tuple(
                    math.inf if rng.random() < 0.25 else float(rng.uniform(0.2, 30.0))
                    for _ in range(3)
                )
                for _ in range(5)
            )
            matrix = CostMatrix(("x", "y", "z"), tuple(f"p{i}" for i in range(5)), rows)
            curves = performance_profile(matrix)
            for curve in curves:
                assert all(0.0 <= v <= 1.0 for v in curve.rho)
                assert all(b >= a for a, b in zip(curve.rho, curve.rho[1:]))
            for c in (0.1, 3.0, 1000.0):
                scaled_curves = performance_profile(
                    CostMatrix(
                        matrix.solvers,
                        matrix.instances,
                        tuple(tuple(v * c for v in row) for row in rows),
                    )
                )
                for base, scaled in zip(curves, scaled_curves):
                    assert base.rho == scaled.rho
                    for tau in probe_taus:
                        assert base.rho_at(tau) == scaled.rho_at(tau)
    assert sw.elapsed < 1.0
    _report(4, f"2x2 fixture exact; monotonicity/range/scale invariance in {sw.elapsed:.2f}s")


def test_criterion_5_ecdf_recount():
    from timefair.clock import ClockSpec
    from timefair.core import Budget, TargetSpec
    from timefair.protocol import AlgorithmSpec, ExperimentPlan

    with Stopwatch() as sw:
        plan = ExperimentPlan(
            algorithms=(AlgorithmSpec("rs", "random-search", {"max_iterations": 7}),),
            instances=("sphere-d2",),
            budget=Budget(wall_time_limit=0.25),
            targets=TargetSpec(kind="absolute", values=(3.0, 1.0, 0.3, 0.1)),
            repetitions=70,
            master_seed=505,
            clock=ClockSpec(mode="virtual", cost_per_eval=1 / 64),
        )
        records = [r for rs in run_plan(plan).values() for r in rs][:200]
        assert len(records) == 200
        targets = {"sphere-d2": plan.targets.resolve(0.0)}
        grid = sorted(float(t) for t in np.random.default_rng(5).uniform(0, 0.3, size=40))
        curve = anytime_ecdf(pair_times(records, targets), grid)
        for j, t in enumerate(grid):
            numerator = 0
            denominator = 0
            for record in records:
                for q in targets["sphere-d2"]:
                    denominator += 1
                    hit = None
                    for elapsed, best_f in zip(record.elapsed, record.best_f):
                        if best_f <= q:
                            hit = elapsed
                            break
                    if hit is not None and hit <= t:
                        numerator += 1
            assert curve.numerators[j] == numerator
            assert curve.denominators[j] == denominator
            assert curve.fraction[j] == numerator / denominator
        assert all(0.0 <= f <= 1.0 for f in curve.fraction)
        assert all(b >= a for a, b in zip(curve.fraction, curve.fraction[1:]))
    assert sw.elapsed < 2.0
    _report(5, f"200 virtual runs, brute recount at 40 grid points in {sw.elapsed:.2f}s")


def test_criterion_6_budget_enforcement(tmp_path):
    with Stopwatch() as sw:
        # virtual: aggregate time never exceeds T, and the scenario is exact
        plan = scenario_plan(repetitions=3)
        for records in run_plan(plan).values():
            for rep in range(plan.repetitions):
                total = 0.0
                for record in records:
                    if record.repetition == rep:
                        total += record.time_used
                assert total <= 50.0
        rng = np.random.default_rng(6)
        for _ in range(10):
            from timefair.clock import ClockSpec
            from timefair.core import Budget
            from timefair.protocol import AlgorithmSpec, ExperimentPlan

            T = float(rng.uniform(0.1, 2.0))
            virtual_plan = ExperimentPlan(
                algorithms=(AlgorithmSpec("rs", "random-search", {"max_iterations": 9}),),
                instances=("sphere-d2",),
                budget=Budget(wall_time_limit=T),
                targets=None,
                repetitions=1,
                master_seed=int(rng.integers(0, 2**32)),
                clock=ClockSpec(mode="virtual", cost_per_eval=float(rng.uniform(0.001, 0.03))),
            )
            total = 0.0
            for record in run_time_fair(virtual_plan, "rs", "sphere-d2", 0):
                total += record.time_used
            assert total <= T

        # real mode: 2-second smoke plan, overshoot bounded by one iteration
        cfg = {
            "output_dir": str(tmp_path / "real-out"),
            "budget": {"wall_time_limit": 2.0},
            "targets": None,
            "repetitions": 1,
            "master_seed": 99,
            "clock": {"mode": "real"},
            "algorithms": [{"label": "rs", "kind": "random-search"}],
            "instances": ["sphere-d2"],
        }
        config_path = tmp_path / "real.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "real-out" / "manifest.json").read_text())
        budget_section = manifest["checklist"]["budget"]
        overshoot = budget_section["max_overshoot_seconds"]
        max_step = budget_section["max_step_seconds"]
        assert overshoot >= 0.0
        assert overshoot <= max_step + 1e-6
    assert sw.elapsed < 10.0
    _report(
        6,
        f"virtual never exceeds T; real 2s smoke overshoot {overshoot * 1e3:.3f}ms "
        f"<= max iteration {max_step * 1e3:.3f}ms; {sw.elapsed:.2f}s",
    )


def test_criterion_7_determinism_replay(tmp_path):
    cfg = demo_config()
    with Stopwatch() as sw:
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            cfg["output_dir"] = str(out)
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(cfg))
            assert main(["run", "--config", str(config_path)]) == 0
            assert main(["analyze", str(out)]) == 0
            outputs.append(out)
        one, two = outputs
        log_paths = sorted(p.relative_to(one) for p in one.glob("runs/*/*.jsonl"))
        assert log_paths
        for rel in log_paths:
            assert (one / rel).read_bytes() == (two / rel).read_bytes()
        analysis_paths = sorted(p.relative_to(one) for p in one.glob("curves/*.csv"))
        analysis_paths.append(Path("ert_table.csv"))
        for rel in analysis_paths:
            assert (one / rel).read_bytes() == (two / rel).read_bytes()
    assert sw.elapsed < 5.0
    _report(
        7,
        f"{len(log_paths)} logs and {len(analysis_paths)} analysis files "
        f"byte-identical across replays; {sw.elapsed:.2f}s",
    )


def test_criterion_8_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    with Stopwatch() as sw:
        records = [random_record(rng) for _ in range(10_000)]
        path = tmp_path / "big.jsonl"
        write_run_log(records, path)
        result = parse_run_log(path)
        assert result.records == records
        assert result.skipped_runs == 0 and result.issues == []

        def ert_table(recs):
            groups = {}
            for r in recs:
                groups.setdefault((r.algorithm_id, r.instance_id), []).append(r)
            T = 25.0
            table = {}
            for key, rs in sorted(groups.items()):
                for q in (60.0, 30.0, 5.0):
                    table[key + (q,)] = ert([time_to_target(r, q, T) for r in rs], T)
            return table

        assert ert_table(records) == ert_table(result.records)
    assert sw.elapsed < 5.0
    _report(8, f"10^4 records round-tripped with identical ERT tables in {sw.elapsed:.2f}s")


def test_criterion_9_checklist_audit(demo_out, capsys):
    assert main(["report", str(demo_out)]) == 0
    stdout = capsys.readouterr().out
    for number in range(1, 9):
        assert f"item {number} " in stdout
    assert "FAIL" not in stdout
    assert stdout.count("PASS") >= 8  # 7 passes + verdict; item 7 is justified NA

    manifest_path = demo_out / "manifest.json"
    original = manifest_path.read_text()
    try:
        manifest = json.loads(original)
        del manifest["checklist"]["statistics"]
        manifest_path.write_text(json.dumps(manifest, indent=2))
        assert main(["report", str(demo_out)]) == 1
        tampered = capsys.readouterr().out
        assert "item 5 (statistical rigor): FAIL" in tampered
    finally:
        manifest_path.write_text(original)
    _report(9, "all eight items pass; removing seeds flips item 5 to FAIL with exit 1")


def test_criterion_10_problem_catalog():
    for name in CATALOG_OPTIMA:
        for d in (2, 5, 10):
            instance_id = f"{name}-d{d}"
            instance = get_problem(instance_id)
            value = instance.evaluate(optimum_point(instance_id))
            assert abs(value - instance.f_opt) <= 1e-12, instance_id
    assert get_problem("rastrigin-d2").evaluate([1.0, 0.0]) == 1.0
    _report(10, "all optima within 1e-12 for d in {2,5,10}; Rastrigin(1,0) == 1.0 exactly")
