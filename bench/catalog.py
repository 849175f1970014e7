"""What the benchmark measures: workloads, metrics, bounds, statistics.

This module is the single declaration of every workload and metric
name; ``BENCHMARK.json`` at the repository root repeats the subset the
benchmark driver enforces and ``test_bench.py`` checks the two agree.

Three kinds of metric:

``end_to_end``
    Defined on every workload, never zero, steady across seeds.  These
    are the ones ``BENCHMARK.json`` bounds and ``--trace 0`` prints.
``extended``
    End-to-end metrics that only exist on some workloads, can be zero,
    or carry an absolute bound.  Measured in the same untraced pass,
    written to the result file and judged by ``--aa`` / ``--compare``.
``per_layer``
    One layer's (= one ``src/repro`` package's) time, count or ratio,
    measured in the traced pass (``--trace 1``).  No bound.  A workload
    that does not exercise a layer reports 0 for that layer's metrics.

All ``*_s`` / ``*_ms`` / ``*_us`` values are *host* time.  Everything
counted in cycles, packets or rates of the modelled hardware is
*simulated* and must repeat exactly for a fixed seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

SWEEP = "sweep_smoke27"
SATURATED = "fabric_saturated"
LOW_LOAD = "fabric_low_load"
VERIFY = "verify_mini"

#: Workload name -> why it exists (one line; mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    SWEEP: (
        "9 schemes x 3 benchmarks through the 2-worker sweep runner, cold "
        "design cache then warm store: the shape users run; every layer works"
    ),
    SATURATED: (
        "24x24 mesh past saturation under both tick engines: router "
        "allocation/traversal does nearly all the work, gpu/mem/harness none"
    ),
    LOW_LOAD: (
        "16x16 mesh at 0.2% injection for 10000 cycles, both engines: idle "
        "routers, so per-tick fixed cost dominates and allocation does little"
    ),
    VERIFY: (
        "12 derandomized fuzz cases with per-cycle audits: construction, "
        "audits and engine sync dominate, so work moved into set-up shows"
    ),
}
FABRIC = (SATURATED, LOW_LOAD)
ALL = tuple(WORKLOADS)
ENGINES = ("object", "vector")


@dataclass(frozen=True)
class Metric:
    """One named measurement and the rule for judging a change in it."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    kind: str  # "end_to_end" | "extended" | "per_layer"
    workloads: Tuple[str, ...] = ALL
    # Largest tolerated worsening: a share of the base value ("rel") or
    # an absolute amount in the metric's unit ("abs").  None = unbounded.
    bound: Optional[float] = None
    bound_kind: str = "rel"
    # Simulated quantity: must repeat exactly for a fixed seed.
    exact: bool = False


def _per_engine(stem, unit, better, kind, workloads, **kw) -> List[Metric]:
    return [
        Metric(f"{stem}.{engine}", unit, better, kind, workloads, **kw)
        for engine in ENGINES
    ]


_E2E, _EXT, _LAYER = "end_to_end", "extended", "per_layer"
_SWEEP_FABRIC = (SWEEP,) + FABRIC

METRICS: Tuple[Metric, ...] = tuple(
    [
        # Bounds follow sets of ten runs on ten seeds on the 2-core
        # sandbox, whose speed drifts by 5-10 % over tens of seconds (and
        # by 25 % and more for a minute now and then): quartile spreads
        # were wall_s 5-12 % (18 % in a slow spell), setup_s 4-21 %
        # (milliseconds on the fabric workloads), peak_rss_mb 0.1-2.6 %
        # (2-8 % on the sweep, whose workers share the cells by chance).
        # bench/README.md has the table.
        Metric("setup_s", "s", "lower", _E2E, bound=0.25),
        Metric("wall_s", "s", "lower", _E2E, bound=0.25),
        Metric("peak_rss_mb", "MB", "lower", _E2E, bound=0.20),
        Metric("sim_cycles_per_s", "1/s", "higher", _EXT, _SWEEP_FABRIC, bound=0.25),
        *_per_engine("sim_cycles_per_s", "1/s", "higher", _EXT, FABRIC, bound=0.25),
        Metric("cell_s_p50", "s", "lower", _EXT, (SWEEP,), bound=0.25),
        Metric("cell_s_p60", "s", "lower", _EXT, (SWEEP,), bound=0.25),
        Metric("failed_fraction", "ratio", "lower", _EXT, bound=0.0, bound_kind="abs"),
        Metric(
            "fidelity_gap_pp", "pp", "lower", _EXT, (SWEEP,),
            bound=0.5, bound_kind="abs", exact=True,
        ),
        # -- core ------------------------------------------------------
        Metric("core.placement_cold_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("core.design_cold_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric(
            "core.mcts_eval_cache_hit_rate", "ratio", "higher", _LAYER,
            (SWEEP,), exact=True,
        ),
        # -- schemes ---------------------------------------------------
        *_per_engine("schemes.fabric_build_s", "s", "lower", _LAYER, (SWEEP,)),
        # -- gpu -------------------------------------------------------
        Metric("gpu.system_init_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("gpu.system_loop_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("gpu.pe_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("gpu.cb_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("gpu.pe_stall_cycles", "count", "lower", _LAYER, (SWEEP,), exact=True),
        Metric("gpu.cb_stall_cycles", "count", "lower", _LAYER, (SWEEP,), exact=True),
        Metric(
            "gpu.fast_forwarded_cycles", "count", "higher", _LAYER, (SWEEP,),
            exact=True,
        ),
        # -- mem -------------------------------------------------------
        Metric("mem.hbm_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("mem.row_hit_rate", "ratio", "higher", _LAYER, (SWEEP,), exact=True),
        Metric("mem.utilization", "ratio", "higher", _LAYER, (SWEEP,), exact=True),
        # -- noc -------------------------------------------------------
        Metric("noc.fabric_tick_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("noc.fabric_io_s", "s", "lower", _LAYER, (SWEEP,)),
        *_per_engine("noc.build_s", "s", "lower", _LAYER, FABRIC),
        *_per_engine("noc.tick_us_p50", "us", "lower", _LAYER, FABRIC),
        *_per_engine("noc.tick_us_p99", "us", "lower", _LAYER, FABRIC),
        *_per_engine("noc.ni_enqueue_s", "s", "lower", _LAYER, FABRIC),
        *_per_engine("noc.drain_s", "s", "lower", _LAYER, FABRIC),
        Metric("noc.vector_speedup", "ratio", "higher", _LAYER, FABRIC),
        Metric(
            "noc.mean_latency_cycles", "cycles", "lower", _LAYER, FABRIC,
            exact=True,
        ),
        Metric("noc.packets_delivered", "count", "higher", _LAYER, FABRIC, exact=True),
        Metric("noc.audit_us", "us", "lower", _LAYER, (VERIFY,)),
        Metric("noc.sync_for_inspection_us", "us", "lower", _LAYER, (VERIFY,)),
        # -- workloads -------------------------------------------------
        *_per_engine("workloads.driver_s", "s", "lower", _LAYER, FABRIC),
        # -- power -----------------------------------------------------
        Metric("power.energy_area_s", "s", "lower", _LAYER, (SWEEP,)),
        # -- harness ---------------------------------------------------
        Metric("harness.sweep_overhead_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("harness.parallel_efficiency", "ratio", "higher", _LAYER, (SWEEP,)),
        Metric("harness.sweep_warm_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric(
            "harness.store_hit_rate", "ratio", "higher", _LAYER, (SWEEP,),
            exact=True,
        ),
        Metric("harness.cell_retries", "count", "lower", _LAYER, (SWEEP,), exact=True),
        Metric("harness.reduce_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("harness.bus_roundtrip_us.memory", "us", "lower", _LAYER, (SWEEP,)),
        Metric("harness.bus_roundtrip_us.sqlite", "us", "lower", _LAYER, (SWEEP,)),
        Metric("harness.store_put_ms", "ms", "lower", _LAYER, (SWEEP,)),
        Metric("harness.store_get_ms", "ms", "lower", _LAYER, (SWEEP,)),
        Metric("harness.design_cache_disk_hit_ms", "ms", "lower", _LAYER, (SWEEP,)),
        # -- telemetry -------------------------------------------------
        Metric("telemetry.overhead_frac", "ratio", "lower", _LAYER, (VERIFY,)),
        Metric("telemetry.export_s", "s", "lower", _LAYER, (VERIFY,)),
        # -- verify ----------------------------------------------------
        Metric("verify.invariants_s", "s", "lower", _LAYER, (VERIFY,)),
        Metric("verify.differential_s", "s", "lower", _LAYER, (VERIFY,)),
        Metric("verify.engine_parity_s", "s", "lower", _LAYER, (VERIFY,)),
        Metric("verify.cases_run", "count", "higher", _LAYER, (VERIFY,), exact=True),
        # -- cli -------------------------------------------------------
        Metric("cli.import_s", "s", "lower", _LAYER, (SWEEP,)),
        Metric("cli.run_cell_s", "s", "lower", _LAYER, (SWEEP,)),
        # -- host ------------------------------------------------------
        Metric("host.calibration_s", "s", "lower", _LAYER),
        Metric("host.trace_overhead_frac", "ratio", "lower", _LAYER),
    ]
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in METRICS}


def of_kind(*kinds: str) -> List[Metric]:
    return [m for m in METRICS if m.kind in kinds]


def contract(run_seconds: int, command: Sequence[str], paths: Sequence[str]) -> Dict:
    """The ``BENCHMARK.json`` document this catalog implies."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in of_kind(_E2E)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in of_kind(_LAYER)
        ],
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
#: Candidate tail percentiles, ascending.
PERCENTILE_LADDER = (50, 60, 70, 75, 80, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(p/100 * n))."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def pick_tail_percentile(n: int) -> float:
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it.

    A tail percentile backed by fewer samples is mostly noise; with too
    few samples for any tail this degrades to the median.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def spread(values: Sequence[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median.

    Interquartile distance over the median for >= 4 values (the rule
    the benchmark driver applies to ten runs), full range over the
    median for 2-3, None for a single value.
    """
    values = list(values)
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if not mid:
        return None
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)
