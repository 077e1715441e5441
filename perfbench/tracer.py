"""Span tracer installed from outside the program.

Each traced callable is replaced, where its caller looks it up, by a
wrapper that records one span: name, start, end, parent span and an
optional unit count (rows evaluated, runs returned, parse issues, or the
tracemalloc peak in MB). Spans stay in flat arrays in memory and are
written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from array import array
from time import perf_counter


def _rows(args, result) -> float:
    return len(args[1])


def _runs(args, result) -> float:
    return len(result)


def _issues(args, result) -> float:
    return len(result.issues)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.stack = [-1]
        self.missing: list[str] = []

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a top-level span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(self.names.index(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.units.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        try:
            return fn(*args)
        finally:
            self.end[index] = perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr: str, name: str, units=None, memory: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        A name the program no longer has is listed in ``missing`` (and its
        layer metrics read 0) instead of failing the traced run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, starts, ends, unit_values = self.stack, self.start, self.end, self.units
        name_ids, parents = self.name_id, self.parent

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            unit_values.append(0.0)
            stack.append(index)
            if memory:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                if memory:
                    unit_values[index] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if units is not None:
                unit_values[index] = units(args, result)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            units=np.frombuffer(self.units, dtype=np.float64),
        )


def install(tracer: Tracer, memory: bool = False) -> None:
    """Wrap the public functions of every layer where their callers look
    them up: module attributes the CLI reaches through ``metrics.`` and
    ``report.``, names imported into ``cli``/``report``, and methods on
    the classes the protocol dispatches through."""
    from timefair import cli, clock, metrics, optimizers, problems, protocol, report

    w = tracer.wrap
    w(cli, "validate_config", "cli.validate_config")
    w(cli, "plan_from_config", "cli.plan_from_config")
    w(cli, "run_plan", "protocol.run_plan")
    w(protocol, "run_time_fair", "protocol.run_time_fair", units=_runs)
    w(protocol.RunEvaluator, "evaluate", "protocol.RunEvaluator.evaluate")
    w(protocol.RunEvaluator, "evaluate_rows", "protocol.RunEvaluator.evaluate_rows", units=_rows)
    w(problems.ProblemInstance, "evaluate", "problems.evaluate")
    w(problems.ProblemInstance, "evaluate_rows", "problems.evaluate_rows", units=_rows)
    w(clock.VirtualClock, "charge", "clock.charge")
    w(optimizers.PSO, "step", "optimizers.step.pso")
    w(optimizers.RandomSearch, "step", "optimizers.step.random-search")
    w(optimizers.StagnationRestart, "step", "optimizers.wrapper.stagnation-restart")
    w(optimizers.SyntheticOverhead, "step", "optimizers.wrapper.synthetic-overhead")
    w(report, "write_run_log", "report.write_run_log")
    w(report, "parse_run_log", "report.parse_run_log", units=_issues)
    w(report, "validate", "core.validate")
    w(report, "build_manifest", "report.build_manifest")
    w(report, "audit_manifest", "report.audit_manifest")
    w(metrics, "median_trajectory", "metrics.median_trajectory", memory=memory)
    w(metrics, "anytime_ecdf", "metrics.anytime_ecdf")
    w(metrics, "time_to_target", "metrics.time_to_target")
    w(metrics, "ert", "metrics.ert")
    w(metrics, "performance_profile", "metrics.performance_profile")
    w(metrics, "rank_sum_test", "metrics.rank_sum_test")
    if tracer.missing:
        print(f"perfbench: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
