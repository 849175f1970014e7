"""Experiment harness: per-figure regeneration of the paper's evaluation."""

from . import cache, figures, runner
from .experiment import (
    ExperimentConfig,
    build_fabric,
    run_experiment,
    run_suite,
)
from .metrics import (
    ExperimentResult,
    LatencyNs,
    format_table,
    geomean,
    mean,
    normalize,
    reduction_percent,
)
from .runner import (
    CellOutcome,
    SweepCell,
    SweepReport,
    expand_grid,
    run_sweep,
    sweep,
)

__all__ = [
    "cache",
    "figures",
    "runner",
    "ExperimentConfig",
    "build_fabric",
    "run_experiment",
    "run_suite",
    "ExperimentResult",
    "LatencyNs",
    "format_table",
    "geomean",
    "mean",
    "normalize",
    "reduction_percent",
    "CellOutcome",
    "SweepCell",
    "SweepReport",
    "expand_grid",
    "run_sweep",
    "sweep",
]
