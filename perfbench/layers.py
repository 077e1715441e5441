"""Per-layer metrics from recorded spans.

A span's self time is its duration minus the time its direct children
cover; spans nest (one thread, one call stack), so direct children never
overlap. A phase span wraps one CLI subcommand; its self time is the part
of the phase that no traced layer covers.
"""

from __future__ import annotations

import json

import numpy as np

PHASES = ("run", "analyze", "report", "simulate")


class Spans:
    def __init__(self, names, name_id, parent, start, end, units):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        self.units = np.asarray(units, dtype=float)
        nested = self.parent >= 0
        covered = np.bincount(
            self.parent[nested], weights=self.duration[nested], minlength=len(self.duration)
        )
        self.self_time = self.duration - covered

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls(
                json.loads(str(data["names"])),
                data["name_id"],
                data["parent"],
                data["start"],
                data["end"],
                data["units"],
            )

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        hit = self.name_id == self.names.index(name)
        if parent is not None:
            parents = self.name_id[np.maximum(self.parent, 0)]
            prefix = [i for i, n in enumerate(self.names) if n.startswith(parent)]
            hit &= (self.parent >= 0) & np.isin(parents, prefix)
        return hit


class Totals:
    """Sums over the spans of one cycle (several processes)."""

    def __init__(self, spans_list: list[Spans]):
        self.spans_list = spans_list

    def _select(self, names, parent=None):
        for spans in self.spans_list:
            for name in names:
                yield spans, spans.mask(name, parent)

    def count(self, *names) -> float:
        return float(sum(m.sum() for _, m in self._select(names)))

    def time(self, *names, parent=None) -> float:
        return float(sum(s.duration[m].sum() for s, m in self._select(names, parent)))

    def self_time(self, *names) -> float:
        return float(sum(s.self_time[m].sum() for s, m in self._select(names)))

    def units(self, *names) -> float:
        return float(sum(s.units[m].sum() for s, m in self._select(names)))

    def peak_units(self, name: str) -> float:
        return float(max((s.units[m].max() for s, m in self._select((name,)) if m.any()), default=0.0))


def _per(total: float, n: float, scale: float = 1.0) -> float:
    return total / n * scale if n else 0.0


def layer_metrics(t: Totals) -> dict[str, float]:
    """The per-layer metrics of one traced cycle (``log_bytes``,
    ``median_trajectory_peak_mb`` and the trace.* figures come from
    elsewhere)."""
    evaluate_rows = t.units("protocol.RunEvaluator.evaluate_rows")
    evals = t.count("protocol.RunEvaluator.evaluate") + evaluate_rows
    runs = t.units("protocol.run_time_fair")
    wrappers = ("optimizers.wrapper.stagnation-restart", "optimizers.wrapper.synthetic-overhead")
    m = {
        "cli.validate_config_s": t.time("cli.validate_config"),
        "cli.plan_from_config_s": t.time("cli.plan_from_config"),
        "problems.evaluate_calls": t.count("problems.evaluate"),
        "problems.evaluate_us": _per(t.time("problems.evaluate"), t.count("problems.evaluate"), 1e6),
        "problems.evaluate_rows_calls": t.count("problems.evaluate_rows"),
        "problems.evaluate_rows_us_per_row": _per(
            t.time("problems.evaluate_rows"), t.units("problems.evaluate_rows"), 1e6
        ),
        "clock.charge_calls": t.count("clock.charge"),
        "clock.charge_s": t.time("clock.charge"),
        "protocol.evals": evals,
        "protocol.runs": runs,
        "protocol.evaluator_self_us_per_eval": _per(
            t.self_time("protocol.RunEvaluator.evaluate", "protocol.RunEvaluator.evaluate_rows"),
            evals,
            1e6,
        ),
        "protocol.run_time_fair_self_s": t.self_time("protocol.run_time_fair"),
        "protocol.restart_self_us_per_run": _per(t.self_time("protocol.run_time_fair"), runs, 1e6),
        "optimizers.step_self_us.pso": _per(
            t.self_time("optimizers.step.pso"), t.count("optimizers.step.pso"), 1e6
        ),
        "optimizers.step_self_us.random-search": _per(
            t.self_time("optimizers.step.random-search"),
            t.count("optimizers.step.random-search"),
            1e6,
        ),
        "optimizers.wrapper_self_us": _per(t.self_time(*wrappers), t.count(*wrappers), 1e6),
        "report.write_run_log_s": t.time("report.write_run_log"),
        "report.parse_run_log_s": t.time("report.parse_run_log"),
        "report.parse_issues": t.units("report.parse_run_log"),
        "report.build_manifest_s": t.time("report.build_manifest"),
        "report.audit_manifest_s": t.time("report.audit_manifest"),
        "core.validate_s": t.time("core.validate"),
        "metrics.median_trajectory_s": t.time("metrics.median_trajectory"),
        "metrics.anytime_ecdf_s": t.time("metrics.anytime_ecdf"),
        # calls made by the CLI itself; anytime_ecdf's own lookups are inside its span
        "metrics.ert_s": t.time("metrics.time_to_target", "metrics.ert", parent="phase."),
        "metrics.performance_profile_s": t.time("metrics.performance_profile"),
        "metrics.rank_sum_test_s": t.time("metrics.rank_sum_test"),
    }
    for phase in PHASES:
        m[f"trace.uncovered_share.{phase}"] = _per(
            t.self_time(f"phase.{phase}"), t.time(f"phase.{phase}")
        )
    return m
