"""Workload substrate: 29 benchmark profiles and traffic generators."""

from .generator import GeneratedRequest, RequestGenerator
from .profiles import (
    BENCHMARKS,
    BY_NAME,
    TIERS,
    WorkloadProfile,
    get,
    names,
    subset,
    tier,
)
from .synthetic import (
    SweepPoint,
    SyntheticResult,
    run_few_to_many,
    run_uniform,
    saturation_throughput,
    sweep_few_to_many,
)

__all__ = [
    "GeneratedRequest",
    "RequestGenerator",
    "BENCHMARKS",
    "BY_NAME",
    "WorkloadProfile",
    "get",
    "names",
    "subset",
    "TIERS",
    "tier",
    "SweepPoint",
    "SyntheticResult",
    "run_few_to_many",
    "run_uniform",
    "saturation_throughput",
    "sweep_few_to_many",
]
