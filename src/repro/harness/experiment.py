"""Run one (scheme, benchmark, size) experiment and collect metrics.

This is the top of the stack: it wires a scheme's fabric, the GPU
system model and the workload profile together, runs to completion, and
reduces everything to the plain-data :class:`ExperimentResult` the
figure generators consume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

from ..core.grid import Grid
from ..gpu.system import System, SystemConfig, SystemResult
from ..noc.diagnostics import DEFAULT_AUDIT_INTERVAL
from ..noc.faults import FaultInjector, FaultPlan, FaultSpec
from ..noc.types import PacketType
from ..power.area import fabric_area
from ..power.energy import fabric_energy
from ..schemes import get_config
from ..schemes.base import BASE_FREQUENCY_GHZ, Fabric
from ..settings import resolve
from ..telemetry import (
    DEFAULT_INTERVAL as DEFAULT_TELEMETRY_INTERVAL,
    SCHEMA_VERSION as TELEMETRY_SCHEMA,
    TelemetryRegistry,
)
from ..workloads import profiles
from . import cache
from .metrics import ExperimentResult, LatencyNs


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness-level knobs shared across a batch of runs.

    The last five fields may also come from the environment:
    :func:`repro.settings.resolve` fills each one still at its default
    here from its ``REPRO_*`` variable, at the harness entry points
    and before the config is hashed or shipped.
    """

    width: int = 8
    num_cbs: int = 8
    quota: int = 120
    mshrs: int = 32
    cb_capacity: int = 16
    seed: int = 0
    mcts_iterations: int = 150
    max_cycles: int = 400000
    # Conservation-audit interval in base cycles: 0 = off, 1 = the
    # default interval, N > 1 = every N cycles.
    validate: int = 0
    # Stall-watchdog window override (0 = the model default).
    watchdog_cycles: int = 0
    # Deterministic fault schedule (noc.faults.FaultSpec tuple); an
    # armed but never-firing plan leaves results bit-identical.
    faults: Tuple[FaultSpec, ...] = ()
    # Tick engine: "object" (per-object golden reference) or "vector"
    # (struct-of-arrays batched tick, repro.noc.vector).  Empty means
    # object.  Both produce bit-identical stats fingerprints (enforced
    # by the engine-parity differential contract).
    engine: str = ""
    # Telemetry sampling interval in base cycles: 0 = off, 1 = the
    # default interval, N > 1 = every N cycles.  Probes are read-only:
    # enabling telemetry keeps stats_fingerprint bit-identical
    # (differential-tested).
    telemetry: int = 0


def config_digest(config: ExperimentConfig) -> str:
    """Short stable digest of a fully-resolved experiment config.

    Keys the result store and the telemetry artifacts: a record is
    only trusted if the scheme, benchmark *and* every config knob
    (seed, quota, fault plan, ...) match the producing run exactly.
    """
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def config_to_dict(config: ExperimentConfig) -> Dict[str, object]:
    """Plain-JSON form of a config (bus payloads, store records).

    Round-trips exactly through :func:`config_from_dict`: the rebuilt
    config has the same :func:`config_digest`, so a cell shipped over
    the work queue keys the same store entries as a local one.
    """
    data = asdict(config)
    data["faults"] = [spec.to_dict() for spec in config.faults]
    return data


def config_from_dict(data: Dict[str, object]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict` (strict: unknown keys raise)."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be an object, got {data!r}")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    payload = dict(data)
    payload["faults"] = tuple(
        FaultSpec.from_dict(spec) for spec in payload.get("faults", ())
    )
    return ExperimentConfig(**payload)


def build_fabric(
    scheme_name: str,
    config: ExperimentConfig,
    scheduler: Optional[str] = None,
) -> Fabric:
    """Instantiate a scheme's fabric at the configured size.

    ``scheduler`` is not a user option: every run ticks with the active
    scheduler, and ``"dense"`` is the differential oracle that
    ``repro.verify`` and the tests build.
    """
    config = resolve(config)
    scheme = get_config(scheme_name)
    grid = Grid(config.width)
    if scheme.equinox:
        design = cache.equinox_design(
            config.width,
            config.num_cbs,
            iterations_per_level=config.mcts_iterations,
            seed=config.seed,
        )
        return Fabric(
            scheme, grid, design.placement.nodes, equinox_design=design,
            scheduler=scheduler, engine=config.engine or None,
        )
    placement = cache.placement(
        scheme.placement_name, config.width, config.num_cbs
    )
    return Fabric(
        scheme, grid, placement.nodes, scheduler=scheduler,
        engine=config.engine or None,
    )


def _latency_ns(fabric: Fabric) -> LatencyNs:
    """Aggregate request/reply latency over the fabric's networks, in ns."""
    counts = {"request": 0, "reply": 0}
    parts = ("queuing", "non_queuing")
    sums = {f"{label}_{part}": 0.0 for label in counts for part in parts}
    req_types = (PacketType.READ_REQUEST, PacketType.WRITE_REQUEST)
    rep_types = (PacketType.READ_REPLY, PacketType.WRITE_REPLY)
    for net, ratio, _role in fabric.networks:
        ns_per_cycle = 1.0 / (BASE_FREQUENCY_GHZ * ratio)
        for label, types in (("request", req_types), ("reply", rep_types)):
            for t in types:
                acc = net.stats.latency[t]
                if not acc.count:
                    continue
                counts[label] += acc.count
                sums[f"{label}_queuing"] += acc.queuing * ns_per_cycle
                sums[f"{label}_non_queuing"] += acc.non_queuing * ns_per_cycle
    return LatencyNs(**{
        f"{label}_{part}": (
            sums[f"{label}_{part}"] / counts[label] if counts[label] else 0.0
        )
        for label in counts
        for part in parts
    })


def _reply_bits_fraction(fabric: Fabric) -> float:
    """Fraction of delivered NoC bits carried by reply packets."""
    from ..noc.types import packet_flits

    reply_bits = 0
    total_bits = 0
    rep_types = (PacketType.READ_REPLY, PacketType.WRITE_REPLY)
    for net, _ratio, _role in fabric.networks:
        for t in PacketType:
            # bits_delivered is aggregated; reconstruct per type from
            # counts and the network's flit width (packet size is fixed
            # per (type, width)).
            acc = net.stats.latency[t]
            bits = acc.count * packet_flits(t, net.flit_bytes) * net.flit_bytes * 8
            total_bits += bits
            if t in rep_types:
                reply_bits += bits
    return reply_bits / total_bits if total_bits else 0.0


def resolve_interval(value: int, default: int) -> int:
    """Normalise a ``--validate``/``--telemetry`` value to an interval.

    ``0`` (or negative) is off, ``1`` is ``default``, and any larger
    integer is the interval itself, in base cycles.
    """
    if value <= 0:
        return 0
    if value == 1:
        return default
    return value


@dataclass
class Simulation:
    """One finished system run, before any reduction."""

    result: SystemResult
    injector: Optional[FaultInjector]
    telemetry: Optional[TelemetryRegistry]
    stats_fingerprint: str


def simulate(
    fabric: Fabric,
    benchmark_name: str,
    config: ExperimentConfig,
    validate_interval: int,
    telemetry_interval: int,
) -> Simulation:
    """Run one benchmark on a built fabric: the run core of every cell.

    Arms ``config.faults`` and, for a positive ``telemetry_interval``,
    a telemetry registry; runs :class:`System` with audits every
    ``validate_interval`` base cycles (0 = off); and takes the sha256
    over every network's counter snapshot.  ``config`` is used as
    given: the harness resolves it first, and ``repro.verify`` passes
    its cases' raw intervals.
    """
    injector: Optional[FaultInjector] = None
    if config.faults:
        if not fabric.config.supports_faults:
            raise ValueError(
                f"scheme {fabric.config.name!r} does not support fault "
                f"plans (topology {fabric.config.topology!r} has no "
                f"detour routing)"
            )
        injector = FaultInjector(fabric, FaultPlan(tuple(config.faults)))
    registry: Optional[TelemetryRegistry] = None
    if telemetry_interval > 0:
        registry = TelemetryRegistry(interval=telemetry_interval)
    system = System(
        fabric,
        profiles.get(benchmark_name),
        SystemConfig(
            quota=config.quota,
            mshrs=config.mshrs,
            cb_capacity=config.cb_capacity,
            seed=config.seed,
            max_cycles=config.max_cycles,
            validate_interval=validate_interval,
            watchdog_cycles=config.watchdog_cycles or None,
            fault_injector=injector,
            telemetry=registry,
        ),
    )
    result = system.run()
    digest = hashlib.sha256()
    for net, _ratio, _role in fabric.networks:
        digest.update(net.stats.fingerprint().encode())
    return Simulation(result, injector, registry, digest.hexdigest())


def run_with_fabric(
    fabric: Fabric,
    benchmark_name: str,
    config: Optional[ExperimentConfig] = None,
    scheme_name: Optional[str] = None,
) -> ExperimentResult:
    """:func:`simulate` a pre-built fabric, reduced to plain metrics.

    Ablations with custom designs call this directly.
    """
    config = resolve(config or ExperimentConfig())
    run = simulate(
        fabric,
        benchmark_name,
        config,
        resolve_interval(config.validate, DEFAULT_AUDIT_INTERVAL),
        resolve_interval(config.telemetry, DEFAULT_TELEMETRY_INTERVAL),
    )
    result = run.result
    energy = fabric_energy(fabric, result.cycles)
    area = fabric_area(fabric)
    scheme = scheme_name or fabric.config.name
    telemetry_record: Optional[Dict[str, object]] = None
    if run.telemetry is not None:
        from .. import __version__

        telemetry_record = {
            "schema": TELEMETRY_SCHEMA,
            "kind": "experiment",
            "version": __version__,
            "scheme": scheme,
            "benchmark": benchmark_name,
            "config_digest": config_digest(config),
            "scheduler": fabric.scheduler,
            "stats_fingerprint": run.stats_fingerprint,
            **run.telemetry.export(),
        }
    return ExperimentResult(
        scheme=scheme,
        benchmark=benchmark_name,
        width=config.width,
        cycles=result.cycles,
        instructions=result.instructions,
        energy_nj=energy.total_nj,
        area_mm2=area.total_mm2,
        latency=_latency_ns(fabric),
        reply_bits_fraction=_reply_bits_fraction(fabric),
        pe_stall_cycles=result.pe_stall_cycles,
        cb_stall_cycles=result.cb_stall_cycles,
        stats_fingerprint=run.stats_fingerprint,
        flits_dropped=sum(
            net.stats.flits_dropped for net, _ratio, _role in fabric.networks
        ),
        packets_recovered=sum(
            net.stats.packets_recovered
            for net, _ratio, _role in fabric.networks
        ),
        telemetry=telemetry_record,
    )


def run_experiment(
    scheme_name: str,
    benchmark_name: str,
    config: Optional[ExperimentConfig] = None,
) -> ExperimentResult:
    """Execute one scheme x benchmark run and reduce it to plain metrics."""
    config = resolve(config or ExperimentConfig())
    fabric = build_fabric(scheme_name, config)
    return run_with_fabric(fabric, benchmark_name, config, scheme_name)


def run_suite(
    schemes: List[str],
    benchmarks: List[str],
    config: Optional[ExperimentConfig] = None,
    progress: bool = False,
    jobs: int = 1,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    store: Optional[object] = None,
) -> Dict[Tuple[str, str], ExperimentResult]:
    """Run a scheme x benchmark grid; ``jobs > 1`` fans out across cores.

    Thin wrapper over :mod:`~repro.harness.runner` preserving the
    classic mapping-shaped return value.  Unlike the runner's graceful
    per-cell error capture, a failed cell here raises, because callers
    index the mapping unconditionally.
    """
    from .runner import expand_grid, run_sweep

    cells = expand_grid(schemes, benchmarks, config)
    report = run_sweep(
        cells,
        jobs=jobs,
        progress=progress,
        cell_timeout=cell_timeout,
        retries=retries,
        store=store,
    )
    errors = report.errors()
    if errors:
        labels = "\n".join(f"  {s} x {b}" for s, b in errors)
        raise RuntimeError(
            f"{len(errors)} sweep cell(s) failed:\n{labels}\n"
            f"first traceback:\n{next(iter(errors.values()))}"
        )
    return report.results()
