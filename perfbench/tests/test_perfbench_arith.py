"""The benchmark's own arithmetic: self time, the ERT oracle, harness share,
and the speed scaling.

    python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    ert_oracle,
    harness_share,
    real_clock_figures,
    report_ok,
    speed_scale,
)
from speed import Sampler  # noqa: E402
from layers import Spans, Totals, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # phase [0, 10] > step [1, 7] > evaluate [2, 3] and [4, 6]; charge [8, 9] under phase
    names = ["phase.run", "optimizers.step.pso", "problems.evaluate", "clock.charge"]
    name_id = [0, 1, 2, 2, 3]
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 1.0, 2.0, 4.0, 8.0]
    end = [10.0, 7.0, 3.0, 6.0, 9.0]
    spans = Spans(names, name_id, parent, start, end, [0.0] * 5)
    assert spans.self_time.tolist() == [3.0, 3.0, 1.0, 2.0, 1.0]
    totals = Totals([spans])
    assert totals.self_time("optimizers.step.pso") == 3.0
    assert totals.time("problems.evaluate") == 3.0
    assert totals.count("problems.evaluate") == 2
    m = layer_metrics(totals)
    assert m["trace.uncovered_share.run"] == pytest.approx(0.3)
    assert m["optimizers.step_self_us.pso"] == pytest.approx(3e6)
    assert m["problems.evaluate_us"] == pytest.approx(1.5e6)
    assert m["trace.uncovered_share.analyze"] == 0.0  # no such phase: reads 0


def test_tracer_records_nesting_and_units():
    class Box:
        def outer(self, xs):
            return self.inner(xs) + 1

        def inner(self, xs):
            return len(xs)

    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner", units=lambda args, result: len(args[1]))
    tracer.wrap(Box, "absent", "absent")
    assert tracer.run("phase.run", Box().outer, [1, 2, 3]) == 4
    assert tracer.missing == ["absent"]
    assert [tracer.names[i] for i in tracer.name_id] == ["phase.run", "outer", "inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert list(tracer.units) == [0.0, 0.0, 3.0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer.start[0] <= tracer.start[1] <= tracer.start[2]
    assert tracer.end[2] <= tracer.end[1] <= tracer.end[0]


def _run(algorithm, trajectory, time_used, evals=10, instance="sphere-d5", repetition=0):
    return {
        "algorithm": algorithm,
        "instance": instance,
        "repetition": repetition,
        "trajectory": trajectory,
        "time_used": time_used,
        "evals_used": evals,
    }


def test_ert_oracle_by_hand():
    T = 10.0
    runs = [
        _run("a", [(1.0, 50.0), (2.5, 5.0)], 3.0),  # hits q=20 at 2.5, q=5 at 2.5
        _run("a", [(4.0, 30.0)], 10.0),  # misses both
        _run("a", [(0.5, 19.0), (9.0, 4.0)], 9.5),  # q=20 at 0.5, q=5 at 9.0
        _run("b", [(12.0, 1.0)], 10.0),  # hit after T does not count
    ]
    table = ert_oracle(runs, [20.0, 5.0], T)
    assert table[("a", "sphere-d5", 20.0)] == ((2.5 + 10.0 + 0.5) / 2, 2, 3, 2 / 3)
    assert table[("a", "sphere-d5", 5.0)] == ((2.5 + 10.0 + 9.0) / 2, 2, 3, 2 / 3)
    ert, successes, n, rate = table[("b", "sphere-d5", 5.0)]
    assert math.isinf(ert) and (successes, n, rate) == (0, 1, 0.0)


def test_harness_share_synthetic():
    # 1000 evals at 3 us of objective each, charged 0.024 s in total:
    # 3 ms of 24 ms is objective, so the harness share is 7/8.
    assert harness_share(1000, 3.0, 0.024) == pytest.approx(0.875)
    runs = [
        _run("random-search", [], 0.012, evals=500),
        _run("random-search", [], 0.012, evals=500, repetition=1),
        _run("pso", [], 0.002, evals=4000),
    ]
    figures = real_clock_figures(runs, {"random-search": 3.0, "pso": 0.125})
    assert figures["real.us_per_eval.random-search"] == pytest.approx(24.0)
    assert figures["real.harness_share.random-search"] == pytest.approx(0.875)
    assert figures["real.us_per_eval.pso"] == pytest.approx(0.5)
    assert figures["real.harness_share.pso"] == pytest.approx(0.75)
    # a machine running at half the nominal speed: µs are halved, shares kept
    slow = real_clock_figures(runs, {"random-search": 3.0, "pso": 0.125}, scale=0.5)
    assert slow["real.us_per_eval.random-search"] == pytest.approx(12.0)
    assert slow["real.harness_share.random-search"] == pytest.approx(0.875)


def test_speed_scale_uses_the_geometric_mean_of_the_kernel_means():
    nominal = REFERENCE_NOMINAL_S
    at_nominal = {"python_s": [nominal] * 3, "numpy_s": [nominal], "search_s": [nominal] * 2}
    assert speed_scale(at_nominal) == pytest.approx(1.0)
    # python kernel 2x slow on average (1.5x and 2.5x), numpy 8x, search 4x:
    # the machine is (2 * 8 * 4) ** (1/3) = 4x slower than nominal
    reference = {
        "python_s": [1.5 * nominal, 2.5 * nominal],
        "numpy_s": [8 * nominal],
        "search_s": [4 * nominal],
    }
    assert speed_scale(reference) == pytest.approx(0.25)


def test_report_ok_needs_every_item_and_the_verdict():
    lines = [f"item {n} (x): PASS" for n in range(1, 9)]
    assert report_ok("\n".join(lines + ["checklist verdict: PASS"]), set())
    lines[6] = "item 7 (tuning overhead): NA — no tuning performed"
    text = "\n".join(lines + ["checklist verdict: PASS-with-note"])
    assert report_ok(text, {7})
    assert not report_ok(text, set())
    assert not report_ok(text, {3, 7})
    assert not report_ok("\n".join(lines[:-1] + ["checklist verdict: PASS-with-note"]), {7})


def test_hidden_handler_time_never_steps_the_clock_back():
    class Clock:
        pass

    sampler = Sampler()
    sampler.hide_from(Clock)
    clock = Clock()
    t0 = clock.now()
    sampler.handler_s = 10.0  # a handler ran for 10 s: the clock holds
    assert clock.now() == t0
    sampler.handler_s = 0.0
    assert t0 <= clock.now()
