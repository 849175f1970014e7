"""repro: a reproduction of EquiNox (HPCA 2020).

EquiNox removes the reply-injection bottleneck of interposer-based
throughput processors by giving each cache bank a group of *Equivalent
Injection Routers* reached over interposer links.  This package
implements the full design flow (N-Queen placement, MCTS EIR selection,
the modified network interface) together with every substrate the
paper's evaluation rests on: a flit-level NoC simulator, a GPU
memory-system model, an HBM timing model, interposer physical-design
accounting, and energy/area models.

Quick start::

    from repro import design_equinox, run_experiment

    design = design_equinox(width=8)        # placement + MCTS + RDL plan
    print(design.summary())

    result = run_experiment("EquiNox", "kmeans")
    print(result.cycles, result.edp)
"""

from .core import (
    EquiNoxDesign,
    Grid,
    design_equinox,
    placement_by_name,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_suite,
)
from .schemes import SCHEME_ORDER, Fabric, SchemeConfig, get_config
from .workloads import BENCHMARKS, WorkloadProfile

__version__ = "1.32.0"

__all__ = [
    "EquiNoxDesign",
    "Grid",
    "design_equinox",
    "placement_by_name",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_suite",
    "SCHEME_ORDER",
    "Fabric",
    "SchemeConfig",
    "get_config",
    "BENCHMARKS",
    "WorkloadProfile",
    "__version__",
]
