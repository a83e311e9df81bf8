"""Seedable simulator for supervised computation over task DAGs with a
constant fraction of adversarial workers, plus two instantiations:
verified matrix multiplication over GF(2^61 - 1) and supervised
mergesort with authenticated items."""

from .adversary import Strategy, builtin_strategies, expected_resamples, make_strategy
from .metrics import Metrics
from .protocol import (
    SOURCE,
    TARGET,
    AdversaryView,
    Done,
    Engine,
    FlagApp,
    Reject,
    Report,
    RunOutcome,
    Silent,
    SupervisorState,
    WorkerSampler,
)
from .rngs import TrialRngs
from .taskgraph import (
    GraphBuilder,
    NotADagError,
    TaskGraph,
    TaskKind,
    build_path,
    random_leveled_dag,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryView",
    "Done",
    "Engine",
    "FlagApp",
    "GraphBuilder",
    "Metrics",
    "NotADagError",
    "Reject",
    "Report",
    "RunOutcome",
    "SOURCE",
    "Silent",
    "Strategy",
    "SupervisorState",
    "TARGET",
    "TaskGraph",
    "TaskKind",
    "TrialRngs",
    "WorkerSampler",
    "build_path",
    "builtin_strategies",
    "expected_resamples",
    "make_strategy",
    "random_leveled_dag",
    "__version__",
]
