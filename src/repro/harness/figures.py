"""Regenerate every table and figure of the paper's evaluation.

Each ``figure*``/``table*``/``section*`` function reproduces one
artefact from the paper and returns a plain-data result object with a
``render()`` method producing the text table the benchmark harness
prints.  Absolute numbers come from this repo's simulator, so the
*shape* (orderings, approximate factors) is the reproduction target —
see EXPERIMENTS.md for the side-by-side record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.equinox import EquiNoxDesign
from ..core.grid import Grid
from ..core.hotzone import placement_penalty
from ..core.nqueen import solve_all, solution_to_nodes
from ..physical.ubump import UbumpBudget, equinox_budget, interposer_cmesh_budget
from ..schemes import SCHEME_ORDER
from ..workloads import profiles, synthetic
from . import cache
from .experiment import ExperimentConfig, build_fabric, run_suite
from .metrics import (
    ExperimentResult,
    LatencyNs,
    format_table,
    mean,
    normalize,
    reduction_percent,
)

PLACEMENT_NAMES = ("top", "side", "diagonal", "diamond", "nqueen")


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@dataclass
class Table1:
    rows: List[Tuple[str, str]]

    def render(self) -> str:
        return format_table(("Parameter", "Value"), self.rows)


def table1(config: Optional[ExperimentConfig] = None) -> Table1:
    """The simulation-parameter table (Table 1)."""
    from ..gpu.cachebank import DEFAULT_L2_LATENCY
    from ..mem.hbm import HbmTiming
    from ..schemes.base import BASE_FREQUENCY_GHZ

    config = config or ExperimentConfig()
    timing = HbmTiming()
    rows = [
        ("Network size", "8x8, 12x12, 16x16"),
        ("Network routing", "Minimal adaptive (odd-even)"),
        ("Virtual channel", "2/port, 1 pkt/VC"),
        ("Allocator", "Separable input first"),
        ("PE frequency", f"{BASE_FREQUENCY_GHZ * 1000:.0f} MHz"),
        ("# of LLC banks", str(config.num_cbs)),
        ("HBM bandwidth",
         f"{timing.peak_bytes_per_cycle * BASE_FREQUENCY_GHZ:.0f} GB/s per stack"),
        ("HBM channels / stack", str(timing.channels)),
        ("Memory controllers", f"{config.num_cbs}, FR-FCFS"),
        ("L2 pipeline latency", f"{DEFAULT_L2_LATENCY} cycles"),
        ("PE MSHRs", str(config.mshrs)),
    ]
    return Table1(rows=rows)


# ----------------------------------------------------------------------
# Figure 4: placement heat maps
# ----------------------------------------------------------------------
@dataclass
class Figure4:
    width: int
    variances: Dict[str, float]
    heatmaps: Dict[str, np.ndarray]
    placements: Dict[str, Tuple[int, ...]]

    def render(self) -> str:
        rows = [
            (name, self.variances[name])
            for name in self.variances
        ]
        table = format_table(("Placement", "Residence variance"), rows)
        return f"Figure 4 (heat-map variance, {self.width}x{self.width}):\n{table}"


def figure4(
    width: int = 8,
    injection_rate: float = 0.5,
    cycles: int = 2000,
    seed: int = 3,
) -> Figure4:
    """Per-router residence heat maps under the five CB placements."""
    variances: Dict[str, float] = {}
    heatmaps: Dict[str, np.ndarray] = {}
    placements: Dict[str, Tuple[int, ...]] = {}
    for name in PLACEMENT_NAMES:
        placed = cache.placement(name, width)
        result = synthetic.run_few_to_many(
            Grid(width),
            placed.nodes,
            injection_rate=injection_rate,
            cycles=cycles,
            seed=seed,
        )
        variances[name] = result.heatmap_variance
        heatmaps[name] = result.network.stats.heatmap().reshape(width, width)
        placements[name] = placed.nodes
    return Figure4(
        width=width,
        variances=variances,
        heatmaps=heatmaps,
        placements=placements,
    )


# ----------------------------------------------------------------------
# Figure 5: N-Queen scoring
# ----------------------------------------------------------------------
@dataclass
class Figure5:
    width: int
    num_solutions: int
    penalties: List[int]
    best_penalty: int
    best_nodes: Tuple[int, ...]

    def render(self) -> str:
        return (
            f"Figure 5 ({self.width}x{self.width}): {self.num_solutions} "
            f"N-Queen solutions, penalties min={self.best_penalty} "
            f"max={max(self.penalties)} mean={mean(self.penalties):.1f}; "
            f"best placement nodes={sorted(self.best_nodes)}"
        )


def figure5(width: int = 8) -> Figure5:
    """Score every N-Queen solution with the hot-zone penalty."""
    grid = Grid(width)
    solutions = solve_all(width)
    scored = []
    for cols in solutions:
        nodes = solution_to_nodes(grid, cols)
        scored.append((placement_penalty(grid, nodes), nodes))
    scored.sort()
    return Figure5(
        width=width,
        num_solutions=len(solutions),
        penalties=[s[0] for s in scored],
        best_penalty=scored[0][0],
        best_nodes=scored[0][1],
    )


# ----------------------------------------------------------------------
# Figure 7: the MCTS-selected design
# ----------------------------------------------------------------------
@dataclass
class Figure7:
    design: EquiNoxDesign

    def render(self) -> str:
        return "Figure 7:\n" + self.design.summary()


def figure7(config: Optional[ExperimentConfig] = None) -> Figure7:
    config = config or ExperimentConfig()
    design = cache.equinox_design(
        config.width,
        config.num_cbs,
        iterations_per_level=config.mcts_iterations,
        seed=config.seed,
    )
    return Figure7(design=design)


# ----------------------------------------------------------------------
# Figure 9: execution time, energy, EDP
# ----------------------------------------------------------------------
@dataclass
class Figure9:
    schemes: List[str]
    benchmarks: List[str]
    results: Dict[Tuple[str, str], ExperimentResult]

    def normalized_means(
        self, metric: str, baseline: str = "SingleBase"
    ) -> Dict[str, float]:
        """Mean over benchmarks of per-benchmark normalised values."""
        sums = {scheme: 0.0 for scheme in self.schemes}
        for benchmark in self.benchmarks:
            values = {
                scheme: getattr(self.results[(scheme, benchmark)], metric)
                for scheme in self.schemes
            }
            for scheme, v in normalize(values, baseline).items():
                sums[scheme] += v
        return {s: v / len(self.benchmarks) for s, v in sums.items()}

    def render(self) -> str:
        lines = [f"Figure 9 ({len(self.benchmarks)} benchmarks, normalised "
                 f"to SingleBase):"]
        for metric, label in (
            ("cycles", "Execution time"),
            ("energy_nj", "NoC energy"),
            ("edp", "EDP"),
        ):
            means = self.normalized_means(metric)
            rows = [(s, means[s]) for s in self.schemes]
            lines.append(f"\n(% {label})")
            lines.append(format_table(("Scheme", "Normalised"), rows))
        return "\n".join(lines)


def figure9(
    config: Optional[ExperimentConfig] = None,
    schemes: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    progress: bool = False,
    jobs: int = 1,
) -> Figure9:
    """Run the scheme x benchmark grid behind Figures 9 and 10."""
    config = config or ExperimentConfig()
    schemes = list(schemes or SCHEME_ORDER)
    benchmarks = list(benchmarks or profiles.names())
    results = run_suite(schemes, benchmarks, config, progress=progress,
                        jobs=jobs)
    return Figure9(schemes=schemes, benchmarks=benchmarks, results=results)


# ----------------------------------------------------------------------
# Figure 10: latency breakdown
# ----------------------------------------------------------------------
@dataclass
class Figure10:
    fig9: Figure9

    def mean_latency(self) -> Dict[str, LatencyNs]:
        """Scheme -> mean latency components over benchmarks (ns)."""
        out: Dict[str, LatencyNs] = {}
        for scheme in self.fig9.schemes:
            components = [
                self.fig9.results[(scheme, b)].latency
                for b in self.fig9.benchmarks
            ]
            out[scheme] = LatencyNs(
                request_queuing=mean([c.request_queuing for c in components]),
                request_non_queuing=mean(
                    [c.request_non_queuing for c in components]
                ),
                reply_queuing=mean([c.reply_queuing for c in components]),
                reply_non_queuing=mean(
                    [c.reply_non_queuing for c in components]
                ),
            )
        return out

    def render(self) -> str:
        rows = []
        for scheme, lat in self.mean_latency().items():
            rows.append(
                (
                    scheme,
                    lat.request_queuing,
                    lat.request_non_queuing,
                    lat.reply_queuing,
                    lat.reply_non_queuing,
                    lat.total,
                )
            )
        table = format_table(
            (
                "Scheme",
                "ReqQ(ns)",
                "ReqNQ(ns)",
                "RepQ(ns)",
                "RepNQ(ns)",
                "Total(ns)",
            ),
            rows,
        )
        return "Figure 10 (mean packet latency breakdown):\n" + table


def figure10(fig9: Figure9) -> Figure10:
    return Figure10(fig9=fig9)


# ----------------------------------------------------------------------
# Figure 11: NoC area
# ----------------------------------------------------------------------
@dataclass
class Figure11:
    areas: Dict[str, float]

    def render(self) -> str:
        base = self.areas.get("SeparateBase")
        rows = [
            (s, a, (a / base if base else 0.0)) for s, a in self.areas.items()
        ]
        return "Figure 11 (NoC area):\n" + format_table(
            ("Scheme", "Area (mm^2)", "vs SeparateBase"), rows
        )


def figure11(config: Optional[ExperimentConfig] = None) -> Figure11:
    """Structural NoC area per scheme (no simulation needed)."""
    from ..power.area import fabric_area

    config = config or ExperimentConfig()
    areas = {}
    for scheme in SCHEME_ORDER:
        fabric = build_fabric(scheme, config)
        areas[scheme] = fabric_area(fabric).total_mm2
    return Figure11(areas=areas)


# ----------------------------------------------------------------------
# Section 6.6: µbump budgets
# ----------------------------------------------------------------------
@dataclass
class Section66:
    cmesh: UbumpBudget
    equinox: UbumpBudget

    @property
    def saving_percent(self) -> float:
        return reduction_percent(self.cmesh.num_bumps, self.equinox.num_bumps)

    def render(self) -> str:
        rows = [
            (b.scheme, b.num_links, b.bits_per_link, b.num_bumps,
             b.area_mm2)
            for b in (self.cmesh, self.equinox)
        ]
        table = format_table(
            ("Scheme", "Links", "Bits/link", "µbumps", "Area (mm^2)"), rows
        )
        return (
            "Section 6.6 (µbump budgets):\n"
            f"{table}\nEquiNox saving: {self.saving_percent:.2f}%"
        )


def section66(config: Optional[ExperimentConfig] = None) -> Section66:
    """µbump comparison using the actual MCTS design's link count."""
    config = config or ExperimentConfig()
    design = cache.equinox_design(
        config.width,
        config.num_cbs,
        iterations_per_level=config.mcts_iterations,
        seed=config.seed,
    )
    return Section66(
        cmesh=interposer_cmesh_budget(),
        equinox=equinox_budget(num_eirs=design.num_eirs),
    )


# ----------------------------------------------------------------------
# Figure 12: scalability
# ----------------------------------------------------------------------
@dataclass
class Figure12:
    widths: List[int]
    speedups: Dict[int, float]  # width -> EquiNox IPC / SeparateBase IPC

    def render(self) -> str:
        rows = [(f"{w}x{w}", self.speedups[w]) for w in self.widths]
        return "Figure 12 (EquiNox IPC vs SeparateBase):\n" + format_table(
            ("Network", "Speedup"), rows
        )


def figure12(
    config: Optional[ExperimentConfig] = None,
    widths: Sequence[int] = (8, 12, 16),
    num_benchmarks: int = 5,
    progress: bool = False,
) -> Figure12:
    """IPC gain of EquiNox over SeparateBase at growing network sizes."""
    base = config or ExperimentConfig()
    bench_names = [p.name for p in profiles.subset(num_benchmarks)]
    speedups: Dict[int, float] = {}
    for width in widths:
        if progress:
            print(f"[fig12] {width}x{width}", flush=True)
        results = run_suite(
            ["SeparateBase", "EquiNox"], bench_names,
            replace(base, width=width),
        )
        ratios = [
            results[("EquiNox", name)].ipc
            / results[("SeparateBase", name)].ipc
            for name in bench_names
        ]
        speedups[width] = mean(ratios)
    return Figure12(widths=list(widths), speedups=speedups)
