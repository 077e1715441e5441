"""timefair: benchmark black-box optimizers under a wall-clock budget.

Compares solvers restart-fairly within a fixed time budget T per problem
instance, producing anytime ECDF curves, expected running times (ERT) to
declared targets, time-cost performance profiles, and a machine-readable
reproducibility manifest. A deterministic virtual clock makes whole
experiments replayable bit for bit.
"""

__version__ = "0.1.0"

from .clock import ClockSpec
from .core import Budget, TargetSpec
from .metrics import RunColumns, ert, first_hits
from .protocol import AlgorithmSpec, ExperimentPlan, run_time_fair
