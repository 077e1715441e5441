import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from timefair.core import (
    Budget,
    CostMatrix,
    ErtResult,
    RunRecord,
    TargetSpec,
    Termination,
    TrajectoryPoint,
    validate,
)

from conftest import random_record, run_values
import numpy as np


def _record(points, time_used=None, evals_used=None, termination=Termination.INTERNAL_STOP):
    traj = tuple(TrajectoryPoint(*p) for p in points)
    if time_used is None:
        time_used = traj[-1].elapsed if traj else 0.0
    if evals_used is None:
        evals_used = traj[-1].evals if traj else 0
    return RunRecord(
        algorithm_id="alg",
        instance_id="sphere-d2",
        seed=1,
        trajectory=traj,
        time_used=time_used,
        evals_used=evals_used,
        termination=termination,
    )


class TestValidate:
    def test_decreasing_evals_flagged(self):
        rec = _record([(1.0, 10, 5.0), (2.0, 8, 4.0)])
        assert "evals non-monotone" in validate(*run_values(rec))

    def test_empty_trajectory_with_zero_evals_is_ok(self):
        assert validate(*run_values(_record([], termination=Termination.BUDGET_EXHAUSTED))) == []

    def test_tied_best_f_is_not_an_improvement(self):
        rec = _record([(1.0, 10, 5.0), (2.0, 20, 5.0)])
        assert "best_f not strictly decreasing" in validate(*run_values(rec))

    def test_empty_trajectory_with_evals_flagged(self):
        rec = _record([], evals_used=3)
        assert "empty trajectory with evals_used > 0" in validate(*run_values(rec))

    def test_time_used_before_last_improvement_flagged(self):
        rec = _record([(2.0, 10, 5.0)], time_used=1.0)
        assert "time_used < last trajectory elapsed" in validate(*run_values(rec))

    def test_elapsed_non_monotone_flagged(self):
        rec = _record([(2.0, 10, 5.0), (1.0, 20, 4.0)])
        assert "elapsed non-monotone" in validate(*run_values(rec))

    def test_first_point_needs_an_evaluation(self):
        rec = _record([(0.0, 0, 5.0)])
        assert "first point evals < 1" in validate(*run_values(rec))

    @pytest.mark.parametrize(
        "record, field",
        [
            (_record([(1.0, 1, math.nan)]), "best_f"),
            (_record([(1.0, 1, 5.0), (2.0, 2, -math.inf)]), "best_f"),
            (_record([(1.0, 1, 5.0), (math.nan, 2, 4.0)], time_used=3.0), "elapsed"),
            (_record([(1.0, 1, 5.0)], time_used=math.nan), "time_used"),
            (_record([], time_used=math.inf, termination=Termination.BUDGET_EXHAUSTED), "time_used"),
            (dataclasses.replace(_record([(1.0, 1, 5.0)]), max_step_seconds=math.nan), "max_step_seconds"),
        ],
    )
    def test_non_finite_number_flagged(self, record, field):
        # comparisons with NaN are all false, so no ordering check sees it
        assert f"{field} non-finite" in validate(*run_values(record))

    def test_random_records_are_valid(self, rng):
        for _ in range(200):
            assert validate(*run_values(random_record(rng))) == []

    EDGE_TRAJECTORIES = {
        "nan-elapsed": [(1.0, 1, 5.0), (math.nan, 2, 4.0)],
        "negative-elapsed-after-nan": [(math.nan, 1, 5.0), (-1.0, 2, 4.0)],
        "tied-best_f": [(1.0, 1, 5.0), (2.0, 2, 5.0)],
        "signed-zero-best_f": [(1.0, 1, 0.0), (2.0, 2, -0.0)],
        "decreasing-evals": [(1.0, 10, 5.0), (2.0, 8, 4.0)],
        "nan-best_f": [(1.0, 1, math.nan), (2.0, 2, 4.0), (3.0, 3, -math.inf)],
        "no-evaluation": [(0.0, 0, 5.0)],
        "empty": [],
    }

    @pytest.mark.parametrize("case", sorted(EDGE_TRAJECTORIES))
    def test_edge_trajectories_match_the_reference(self, case):
        points = self.EDGE_TRAJECTORIES[case]
        for time_used in (None, -1.0, math.nan):
            record = _record(points, time_used=time_used, evals_used=None if points else 2)
            assert validate(*run_values(record)) == validate_reference(record)

    def test_random_records_match_the_reference(self, rng):
        for _ in range(500):
            record = random_record(rng)
            reversed_record = dataclasses.replace(record, trajectory=record.trajectory[::-1])
            assert validate(*run_values(record)) == validate_reference(record) == []
            assert validate(*run_values(reversed_record)) == validate_reference(reversed_record)


# values at the edges of every check: signed zeros, ties, NaN and infinities
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, math.inf, -math.inf, math.nan])


@given(
    points=st.lists(st.tuples(EDGE_FLOATS, st.integers(-1, 3), EDGE_FLOATS), max_size=4),
    time_used=EDGE_FLOATS,
    evals_used=st.integers(-1, 4),
    max_step_seconds=EDGE_FLOATS,
)
def test_plain_lists_match_the_reference(points, time_used, evals_used, max_step_seconds):
    record = RunRecord(
        algorithm_id="alg", instance_id="sphere-d2", seed=1, trajectory=[TrajectoryPoint(*p) for p in points],
        time_used=time_used, evals_used=evals_used, termination=Termination.INTERNAL_STOP,
        max_step_seconds=max_step_seconds,
    )
    elapsed, evals, best_f = ([p[k] for p in points] for k in range(3))
    assert validate(elapsed, evals, best_f, time_used, evals_used, max_step_seconds) == validate_reference(record)


def validate_reference(record):
    """``validate`` as it was written first: one generator over the points
    per check."""
    violations = []
    traj = record.trajectory
    if not traj and record.evals_used > 0:
        violations.append("empty trajectory with evals_used > 0")
    if traj:
        if traj[0].evals < 1:
            violations.append("first point evals < 1")
        if any(p.elapsed < 0 for p in traj):
            violations.append("elapsed negative")
        if any(b.elapsed < a.elapsed for a, b in zip(traj, traj[1:])):
            violations.append("elapsed non-monotone")
        if any(b.evals < a.evals for a, b in zip(traj, traj[1:])):
            violations.append("evals non-monotone")
        if any(b.best_f >= a.best_f for a, b in zip(traj, traj[1:])):
            violations.append("best_f not strictly decreasing")
        if record.time_used < traj[-1].elapsed:
            violations.append("time_used < last trajectory elapsed")
        if record.evals_used < traj[-1].evals:
            violations.append("evals_used < last trajectory evals")
        if not all(math.isfinite(p.elapsed) for p in traj):
            violations.append("elapsed non-finite")
        if not all(math.isfinite(p.best_f) for p in traj):
            violations.append("best_f non-finite")
    if not math.isfinite(record.time_used):
        violations.append("time_used non-finite")
    if not math.isfinite(record.max_step_seconds):
        violations.append("max_step_seconds non-finite")
    if record.time_used < 0:
        violations.append("time_used negative")
    if record.evals_used < 0:
        violations.append("evals_used negative")
    return violations


class TestBudget:
    def test_accepts_positive_limit(self):
        assert Budget(wall_time_limit=10.0).eval_cap is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_limits(self, bad):
        with pytest.raises(ValueError):
            Budget(wall_time_limit=bad)

    def test_rejects_zero_eval_cap(self):
        with pytest.raises(ValueError):
            Budget(wall_time_limit=1.0, eval_cap=0)


class TestTargetSpec:
    def test_absolute_resolution_is_identity(self):
        spec = TargetSpec(kind="absolute", values=(10.0, 5.0, 1.0))
        assert spec.resolve() == (10.0, 5.0, 1.0)
        assert spec.resolve()[-1] == 1.0

    def test_relative_targets_add_known_optimum(self):
        spec = TargetSpec(kind="relative", values=(1.0, 0.1))
        assert spec.resolve(f_opt=2.0) == (3.0, 2.1)

    def test_relative_requires_known_optimum(self):
        spec = TargetSpec(kind="relative", values=(1.0, 0.1))
        with pytest.raises(ValueError):
            spec.resolve(f_opt=None)

    @pytest.mark.parametrize("values", [(), (1.0, 1.0), (1.0, 2.0)])
    def test_rejects_non_decreasing_ladders(self, values):
        with pytest.raises(ValueError):
            TargetSpec(kind="absolute", values=values)

    def test_relative_precision_must_be_positive(self):
        with pytest.raises(ValueError):
            TargetSpec(kind="relative", values=(1.0, 0.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(kind="at-most", values=(1.0,))


class TestErtResult:
    def test_zero_successes_force_infinite_ert(self):
        with pytest.raises(ValueError):
            ErtResult(target=1.0, ert=5.0, successes=0, runs=3, success_rate=0.0)
        with pytest.raises(ValueError):
            ErtResult(target=1.0, ert=math.inf, successes=2, runs=3, success_rate=2 / 3)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            ErtResult(target=1.0, ert=1.0, successes=4, runs=3, success_rate=4 / 3)


class TestCostMatrix:
    def test_flags_all_failed_rows(self):
        m = CostMatrix(
            solvers=("a", "b"),
            instances=("p1", "p2"),
            costs=((math.inf, math.inf), (1.0, 2.0)),
        )
        assert m.all_failed_instances == ("p1",)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(solvers=("a",), instances=("p1", "p2"), costs=((1.0,),))

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(solvers=("a",), instances=("p1",), costs=((0.0,),))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_records_always_validate(seed):
    rec = random_record(np.random.default_rng(seed))
    assert validate(*run_values(rec)) == []
