"""timefair: benchmark black-box optimizers under a wall-clock budget.

Compares solvers restart-fairly within a fixed time budget T per problem
instance, producing anytime ECDF curves, expected running times (ERT) to
declared targets, time-cost performance profiles, and a machine-readable
reproducibility manifest. A deterministic virtual clock makes whole
experiments replayable bit for bit.
"""

__version__ = "0.1.0"

from .clock import CLOCK_SCHEME_ID, ClockSpec, RealClock, VirtualClock
from .core import (
    Budget,
    CostMatrix,
    ErtResult,
    RunRecord,
    TargetSpec,
    Termination,
    TrajectoryPoint,
    validate,
)
from .metrics import (
    EcdfCurve,
    MedianCurve,
    ProfileCurve,
    RankSumResult,
    amortize_tuning,
    anytime_ecdf,
    default_time_grid,
    ert,
    median_trajectory,
    performance_profile,
    rank_sum_test,
    time_to_target,
)
from .optimizers import (
    Algorithm,
    PSO,
    PsoParams,
    RandomSearch,
    StagnationRestart,
    make_optimizer,
)
from .problems import ProblemInstance, catalog_names, get_problem, optimum_point
from .protocol import (
    AlgorithmSpec,
    ExperimentPlan,
    PlanError,
    RunEvaluator,
    best_of_restarts,
    build_algorithm,
    derive_seed,
    run_plan,
    run_time_fair,
)
from .seeds import SEED_SCHEME_ID, splitmix64, subseed
