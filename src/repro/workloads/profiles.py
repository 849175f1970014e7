"""The 29 benchmark profiles standing in for Rodinia + CUDA SDK traces.

The paper drives its simulator with 29 benchmarks from Rodinia and the
Nvidia CUDA SDK.  GPU binaries cannot run here, so each benchmark is
replaced by the traffic signature the NoC actually observes, described
by five parameters:

* ``intensity`` — probability a PE issues a memory instruction in a
  cycle when it is in an active phase (the workload's memory demand),
* ``read_fraction`` — reads vs writes (the suite-wide mix is tuned so
  reply traffic carries ~73% of NoC bits, matching the paper's 72.7%),
* ``l2_hit_rate`` — fraction of requests served from the cache bank,
* ``row_hit_rate`` — DRAM row-buffer locality of L2 misses,
* ``burstiness`` — 0 for smooth issue, towards 1 for phased bursts.

Intensity classes follow the paper's qualitative observations, e.g.
``gaussian`` and ``myocyte`` are latency- rather than bandwidth-bound
(their Figure-10 latency is mostly non-queuing), while ``kmeans``,
``fastWalshTransform``, ``scan`` and ``sortingNetworks`` respond
strongly to injection bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class WorkloadProfile:
    """The NoC-visible traffic signature of one GPU benchmark."""

    name: str
    suite: str
    intensity: float
    read_fraction: float
    l2_hit_rate: float
    row_hit_rate: float
    burstiness: float
    dependency: float = 0.15
    """Fraction of memory instructions that depend on the previous
    reply (pointer chasing / reductions): these serialise on round-trip
    latency, making the benchmark latency- rather than bandwidth-bound."""

    def __post_init__(self) -> None:
        for field_name in ("intensity", "read_fraction", "l2_hit_rate",
                           "row_hit_rate", "burstiness", "dependency"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name}={value} outside [0, 1]")


def _p(
    name: str,
    suite: str,
    intensity: float,
    read_fraction: float = 0.8,
    l2_hit_rate: float = 0.5,
    row_hit_rate: float = 0.6,
    burstiness: float = 0.2,
    dependency: float = 0.15,
) -> WorkloadProfile:
    return WorkloadProfile(
        name=name,
        suite=suite,
        intensity=intensity,
        read_fraction=read_fraction,
        l2_hit_rate=l2_hit_rate,
        row_hit_rate=row_hit_rate,
        burstiness=burstiness,
        dependency=dependency,
    )


#: The evaluation suite: 16 Rodinia + 13 CUDA SDK benchmarks = 29.
#:
#: Intensity calibration: on 8x8 with 56 PEs and a 1 flit/cycle/CB
#: reply-injection budget (~1.6 data replies/cycle chip-wide for a
#: separate network), demand saturates the baseline around intensity
#: 0.04.  The suite spans well below (compute-bound: gaussian, myocyte,
#: leukocyte) to several times above (memory-bound: kmeans, scan,
#: fastWalshTransform), matching the paper's qualitative spread.
BENCHMARKS: Tuple[WorkloadProfile, ...] = (
    # ---- Rodinia ----------------------------------------------------
    _p("backprop", "rodinia", 0.100, 0.75, 0.45, 0.70, 0.3, 0.20),
    _p("bfs", "rodinia", 0.160, 0.90, 0.30, 0.30, 0.5, 0.55),
    _p("b+tree", "rodinia", 0.120, 0.90, 0.40, 0.35, 0.3, 0.50),
    _p("cfd", "rodinia", 0.140, 0.80, 0.35, 0.55, 0.2, 0.15),
    _p("dwt2d", "rodinia", 0.100, 0.70, 0.50, 0.70, 0.2, 0.20),
    _p("gaussian", "rodinia", 0.020, 0.80, 0.60, 0.75, 0.1, 0.70),
    _p("heartwall", "rodinia", 0.130, 0.85, 0.40, 0.55, 0.4, 0.10),
    _p("hotspot", "rodinia", 0.080, 0.75, 0.55, 0.70, 0.2, 0.25),
    _p("kmeans", "rodinia", 0.200, 0.90, 0.30, 0.60, 0.3, 0.05),
    _p("lavaMD", "rodinia", 0.040, 0.80, 0.65, 0.70, 0.1, 0.45),
    _p("leukocyte", "rodinia", 0.030, 0.80, 0.70, 0.75, 0.1, 0.55),
    _p("lud", "rodinia", 0.070, 0.75, 0.55, 0.65, 0.2, 0.40),
    _p("myocyte", "rodinia", 0.018, 0.70, 0.65, 0.70, 0.1, 0.80),
    _p("nw", "rodinia", 0.090, 0.80, 0.45, 0.55, 0.3, 0.45),
    _p("particlefilter", "rodinia", 0.150, 0.85, 0.35, 0.50, 0.4, 0.10),
    _p("srad", "rodinia", 0.120, 0.75, 0.45, 0.65, 0.2, 0.15),
    # ---- CUDA SDK ---------------------------------------------------
    _p("BlackScholes", "cuda-sdk", 0.060, 0.65, 0.50, 0.80, 0.1, 0.20),
    _p("convolutionSeparable", "cuda-sdk", 0.100, 0.80, 0.55, 0.75, 0.2, 0.15),
    _p("fastWalshTransform", "cuda-sdk", 0.180, 0.85, 0.25, 0.55, 0.3, 0.05),
    _p("histogram", "cuda-sdk", 0.120, 0.85, 0.40, 0.40, 0.3, 0.30),
    _p("matrixMul", "cuda-sdk", 0.045, 0.80, 0.70, 0.80, 0.1, 0.30),
    _p("mergeSort", "cuda-sdk", 0.130, 0.80, 0.40, 0.50, 0.3, 0.35),
    _p("monteCarlo", "cuda-sdk", 0.140, 0.88, 0.35, 0.60, 0.4, 0.10),
    _p("reduction", "cuda-sdk", 0.160, 0.90, 0.35, 0.65, 0.2, 0.25),
    _p("scalarProd", "cuda-sdk", 0.110, 0.85, 0.45, 0.70, 0.2, 0.20),
    _p("scan", "cuda-sdk", 0.180, 0.85, 0.30, 0.60, 0.3, 0.10),
    _p("sortingNetworks", "cuda-sdk", 0.170, 0.85, 0.30, 0.50, 0.3, 0.10),
    _p("transpose", "cuda-sdk", 0.150, 0.80, 0.35, 0.35, 0.2, 0.05),
    _p("vectorAdd", "cuda-sdk", 0.140, 0.70, 0.30, 0.85, 0.1, 0.05),
)

BY_NAME: Dict[str, WorkloadProfile] = {b.name: b for b in BENCHMARKS}


def get(name: str) -> WorkloadProfile:
    """Look up a benchmark profile by name."""
    try:
        return BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; known: {sorted(BY_NAME)}"
        ) from None


def names() -> List[str]:
    return [b.name for b in BENCHMARKS]


def subset(count: int) -> Tuple[WorkloadProfile, ...]:
    """A smaller representative slice (used by scalability studies).

    Picks benchmarks spread across the intensity spectrum so the subset
    preserves the suite's compute-bound / memory-bound balance.
    """
    ordered = sorted(BENCHMARKS, key=lambda b: b.intensity)
    if count >= len(ordered):
        return tuple(ordered)
    step = (len(ordered) - 1) / max(count - 1, 1)
    return tuple(ordered[round(i * step)] for i in range(count))


#: Named benchmark tiers for sweeps.  A tier trades suite coverage for
#: per-cell cost: ``smoke`` is the cheap CI trio, ``full`` the whole
#: 29-benchmark paper suite, and ``mesh32`` a six-benchmark slice spread
#: across the intensity spectrum for 32x32 scale-up sweeps, where one
#: cell simulates ~16x the tiles of the paper's 8x8 runs.
TIERS: Dict[str, Tuple[str, ...]] = {
    "smoke": ("gaussian", "hotspot", "kmeans"),
    "full": tuple(b.name for b in BENCHMARKS),
    "mesh32": tuple(b.name for b in subset(6)),
}


def tier(name: str) -> List[str]:
    """Look up a named benchmark tier (see :data:`TIERS`)."""
    try:
        return list(TIERS[name])
    except KeyError:
        raise ValueError(
            f"unknown workload tier {name!r}; known: {sorted(TIERS)}"
        ) from None
