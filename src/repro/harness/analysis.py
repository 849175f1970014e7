"""Cross-run analysis: classification, speedups, crossovers.

Helpers that answer the questions the paper's prose asks of Figure 9:
which benchmarks respond to injection bandwidth, where does one scheme
overtake another, and how large are the average/extreme gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .metrics import ExperimentResult, mean

# Fractional exec-time reduction at or above which a benchmark is
# noc-bound, or moderate.
NOC_BOUND_THRESHOLD = 0.15
MODERATE_THRESHOLD = 0.05


@dataclass(frozen=True)
class BenchmarkClass:
    """NoC-sensitivity classification of one benchmark."""

    benchmark: str
    sensitivity: float  # fractional exec-time reduction EquiNox vs base
    label: str  # "noc-bound" | "moderate" | "compute-bound"


def classify(
    baseline: Mapping[str, ExperimentResult],
    improved: Mapping[str, ExperimentResult],
) -> List[BenchmarkClass]:
    """Classify benchmarks by how much a better NoC helps them.

    ``baseline`` and ``improved`` map benchmark name to the result under
    the baseline and improved scheme respectively.
    """
    out = []
    for name, base in baseline.items():
        if name not in improved:
            raise KeyError(f"benchmark {name!r} missing from improved runs")
        sensitivity = 1.0 - improved[name].cycles / base.cycles
        if sensitivity >= NOC_BOUND_THRESHOLD:
            label = "noc-bound"
        elif sensitivity >= MODERATE_THRESHOLD:
            label = "moderate"
        else:
            label = "compute-bound"
        out.append(BenchmarkClass(name, sensitivity, label))
    out.sort(key=lambda c: -c.sensitivity)
    return out


@dataclass(frozen=True)
class SchemeSummary:
    """Suite-level summary of one scheme against a baseline."""

    scheme: str
    mean_reduction: float
    best_benchmark: str
    best_reduction: float
    worst_benchmark: str
    worst_reduction: float
    wins: int  # benchmarks where the scheme beat the baseline
    total: int


def summarize_scheme(
    scheme: str,
    results: Mapping[Tuple[str, str], ExperimentResult],
    benchmarks: Sequence[str],
) -> SchemeSummary:
    """Reduce a scheme x benchmark grid to a suite-level summary of its
    exec-time reduction against SingleBase."""
    reductions: Dict[str, float] = {}
    for bench in benchmarks:
        base = results[("SingleBase", bench)].cycles
        reductions[bench] = 1.0 - results[(scheme, bench)].cycles / base
    best = max(reductions, key=reductions.get)
    worst = min(reductions, key=reductions.get)
    return SchemeSummary(
        scheme=scheme,
        mean_reduction=mean(list(reductions.values())),
        best_benchmark=best,
        best_reduction=reductions[best],
        worst_benchmark=worst,
        worst_reduction=reductions[worst],
        wins=sum(1 for r in reductions.values() if r > 0),
        total=len(benchmarks),
    )


def crossover_benchmarks(
    scheme_a: str,
    scheme_b: str,
    results: Mapping[Tuple[str, str], ExperimentResult],
    benchmarks: Sequence[str],
) -> Tuple[List[str], List[str]]:
    """Split benchmarks by which of two schemes runs faster.

    Returns ``(a_wins, b_wins)``; ties count for neither.  This is how
    the paper discusses DA2Mesh vs SeparateBase: DA2Mesh wins the
    bandwidth-bound benchmarks and loses the serialisation-sensitive
    ones, averaging out.
    """
    a_wins, b_wins = [], []
    for bench in benchmarks:
        a = results[(scheme_a, bench)].cycles
        b = results[(scheme_b, bench)].cycles
        if a < b:
            a_wins.append(bench)
        elif b < a:
            b_wins.append(bench)
    return a_wins, b_wins
