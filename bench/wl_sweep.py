"""``sweep_smoke27``: the (scheme x benchmark) grid users actually run.

All nine schemes x the three smoke-tier benchmarks go through
``harness.runner.sweep`` with two worker processes, a cold design cache
and a fresh result store; an identical second pass must then be served
entirely from the store.  Closed loop: each worker leases its next
cell only after finishing the previous one.

This is the only workload where ``harness`` (bus, service, store,
cache, process spawn) and ``core`` (N-Queen placement + MCTS design
warm-up) do visible work, and it includes the stragglers (DA2Mesh's
2.5x clock domain, the ring) that set a 2-worker makespan.

The quota is 12 instructions per PE, not ``ExperimentConfig``'s 120: a
cold sweep is then ~5 s, so a 30 s run takes the median of five of them.
One 15 s sweep per run (quota 40) read the shared host's bursts directly:
the quartiles of ten such runs lay 11-26 % of the median apart.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import catalog
import spans
from common import (
    Outcome,
    child_reported_seconds,
    median_put,
    median_rounds,
    peak_rss_mb,
    python_child,
    rounds,
    timed,
)

QUOTA = 12
JOBS = min(2, os.cpu_count() or 1)
SETUP_REPS = 3
# The highest percentile of 27 cell times with >= 10 cells beyond it
# (catalog.pick_tail_percentile); the metric name cell_s_p60 fixes it.
CELL_TAIL_PERCENTILE = 60
PAPER_EXEC_TIME_REDUCTION_PP = 47.7  # EquiNox vs SingleBase, Figure 9
TRACED_BENCHMARK = "kmeans"
BUS_TASKS = 200
STORE_RECORDS = 20


def config(seed: int):
    from repro.harness.experiment import ExperimentConfig

    return ExperimentConfig(seed=seed, quota=QUOTA)


def cold_cache(work: Path, tag: str) -> None:
    """Point the design cache at an empty directory and drop tier 1."""
    from repro.harness import cache

    os.environ["REPRO_CACHE_DIR"] = str(work / f"cache-{tag}")
    cache.clear()


def setup_seconds(work: Path, tag: str, cells: Sequence) -> float:
    """What a cold sweep does before its first cell can start.

    Design warm-up (N-Queen placements + the MCTS EquiNox design) on an
    empty cache, then creating the result store and the SQLite bus and
    enqueueing every cell — the steps ``run_sweep`` performs before it
    spawns workers, called here through the same public functions.
    """
    from repro.harness import runner, service
    from repro.harness.bus import BusPolicy, SqliteBus
    from repro.harness.store import DirectoryResultStore

    cold_cache(work, tag)
    start = time.perf_counter()
    runner.warm_design_cache(cells)
    DirectoryResultStore(work / f"store-{tag}")
    bus = SqliteBus(work / f"bus-{tag}.sqlite", policy=BusPolicy())
    for index, cell in enumerate(cells):
        bus.put(service.task_id_for(index, cell), service.cell_payload(cell))
    return time.perf_counter() - start


def _store_files(root: Path) -> Dict[str, Tuple[int, int]]:
    stats = {p.name: p.stat() for p in root.glob("result-*.json")}
    return {name: (st.st_ino, st.st_mtime_ns) for name, st in stats.items()}


def sweep_pair(work: Path, tag: str, benchmarks: Sequence[str], cfg, out: Outcome):
    """A cold sweep then an identical pass on the same store, checked.

    Store hits are observed from outside: a hit leaves the cell's store
    file untouched, a miss re-runs the cell and replaces the file.
    """
    from repro.harness import runner
    from repro.harness.store import DirectoryResultStore
    from repro.schemes import SCHEME_ORDER

    cold_cache(work, tag)
    store = DirectoryResultStore(work / f"store-{tag}")
    start = time.perf_counter()
    cold = runner.sweep(SCHEME_ORDER, benchmarks, cfg, jobs=JOBS, store=store)
    cold_wall = time.perf_counter() - start
    quota_total = cfg.quota * (cfg.width * cfg.width - cfg.num_cbs)  # x PEs
    for o in cold.outcomes:
        out.op(o.ok and o.result.instructions == quota_total)
    before = _store_files(store.root)
    start = time.perf_counter()
    warm = runner.sweep(SCHEME_ORDER, benchmarks, cfg, jobs=JOBS, store=store)
    warm_wall = time.perf_counter() - start
    after = _store_files(store.root)
    cells = len(cold.outcomes)
    hits = sum(1 for name, ident in after.items() if before.get(name) == ident)
    out.check(
        f"warm-store pass is served from the store ({cells}/{cells} hits)",
        hits == cells and len(after) == cells, f"{hits}/{cells} hits",
    )
    out.check(
        "warm-store fingerprints identical to the cold pass",
        fingerprints(warm) == fingerprints(cold) and not warm.errors(),
    )
    return cold, cold_wall, warm_wall, hits / cells


def fingerprints(report) -> Dict[Tuple[str, str], str]:
    return {
        o.cell.key: o.result.stats_fingerprint for o in report.outcomes if o.ok
    }


def fidelity_gap_pp(results: Dict) -> float:
    """|simulated - paper| EquiNox-vs-SingleBase exec-time reduction.

    Geomean over the sweep's three benchmarks only — indicative; the
    29-benchmark figure lives in EXPERIMENTS.md.
    """
    from repro.harness.metrics import geomean

    ratios = [
        results[("EquiNox", b)].cycles / results[("SingleBase", b)].cycles
        for (scheme, b) in results if scheme == "EquiNox"
    ]
    return abs((1.0 - geomean(ratios)) * 100.0 - PAPER_EXEC_TIME_REDUCTION_PP)


def grid_digest(report) -> str:
    digest = hashlib.sha256()
    for key, fp in sorted(fingerprints(report).items()):
        digest.update(f"{key}:{fp}".encode())
    return digest.hexdigest()[:16]


def measure(name: str, seed: int, seconds: float, out: Outcome, work: Path) -> None:
    from repro.harness import runner
    from repro.schemes import SCHEME_ORDER
    from repro.workloads import TIERS

    cfg = config(seed)
    benchmarks = TIERS["smoke"]
    cells = runner.expand_grid(SCHEME_ORDER, benchmarks, cfg)
    median_put(
        out, "setup_s",
        [setup_seconds(work, f"setup{k}", cells) for k in range(SETUP_REPS)],
    )
    walls: List[float] = []
    warm_walls: List[float] = []
    rates: List[float] = []
    p50s: List[float] = []
    tails: List[float] = []

    def one_round() -> None:
        cold, cold_wall, warm_wall, _hit_rate = sweep_pair(
            work, f"round{len(walls)}", benchmarks, cfg, out
        )
        durations = [o.duration_s for o in cold.outcomes]
        results = cold.results()
        walls.append(cold_wall)
        warm_walls.append(warm_wall)
        rates.append(sum(r.cycles for r in results.values()) / sum(durations))
        p50s.append(catalog.percentile(durations, 50))
        tails.append(catalog.percentile(durations, CELL_TAIL_PERCENTILE))
        out.sim.update(
            cells=len(durations),
            sim_cycles=sum(r.cycles for r in results.values()),
            instructions=sum(r.instructions for r in results.values()),
            grid_digest=grid_digest(cold),
        )
        if len(results) == len(durations):
            out.put("fidelity_gap_pp", fidelity_gap_pp(results))

    rounds(seconds, one_round)
    median_rounds(out, "wall_s", walls)
    median_rounds(out, "sim_cycles_per_s", rates)
    median_rounds(out, "cell_s_p50", p50s)
    median_rounds(out, "cell_s_p60", tails)
    out.put("peak_rss_mb", peak_rss_mb())
    out.notes.append(
        f"jobs={JOBS}; warm-store pass {statistics.median(warm_walls):.3f} s; "
        "fidelity_gap_pp covers 3 of the paper's 29 benchmarks (indicative)"
    )


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
@contextmanager
def traced_experiment(rec: spans.Recorder, systems: List) -> Iterator[None]:
    """Make ``run_with_fabric`` build instrumented ``System`` objects.

    ``harness.experiment`` looks ``System``, ``fabric_energy`` and
    ``fabric_area`` up in its own namespace, so binding a subclass and
    timed callables there (and restoring them afterwards) instruments
    the real ``run_with_fabric`` code path without editing ``src/``.
    """
    from repro.gpu.system import System
    from repro.harness import experiment

    class TracedSystem(System):
        def __init__(self, fabric, profile, config=None) -> None:
            with rec.span("gpu.system_init", "gpu"):
                super().__init__(fabric, profile, config)
            pe_methods = {"try_issue": "gpu.pe", "receive_reply": "gpu.pe"}
            for pe in self.pes.values():
                rec.wrap(pe, "gpu", pe_methods)
            for bank in self.banks.values():
                rec.wrap(bank.memory, "mem", {"submit": "mem.hbm", "tick": "mem.hbm"})
                rec.wrap(bank, "gpu", {"tick": "gpu.cb"})
            systems.append(self)

        def run(self):
            with rec.span("gpu.system_loop", "gpu"):
                return super().run()

    saved = (experiment.System, experiment.fabric_energy, experiment.fabric_area)
    experiment.System = TracedSystem
    experiment.fabric_energy = rec.timed(
        "power.energy_area", "power", experiment.fabric_energy
    )
    experiment.fabric_area = rec.timed(
        "power.energy_area", "power", experiment.fabric_area
    )
    try:
        yield
    finally:
        experiment.System, experiment.fabric_energy, experiment.fabric_area = saved


FABRIC_IO = ("send_request", "pop_reply", "pop_request", "send_reply")


def traced_cells(rec: spans.Recorder, cfg, reference, out: Outcome) -> Dict:
    """The traced benchmark's column, serially in-process, instrumented."""
    from repro.harness.experiment import build_fabric, run_with_fabric
    from repro.schemes import SCHEME_ORDER

    systems: List = []  # the instrumented System of the cell in flight
    counts = {"pe_stall": 0, "cb_stall": 0, "fast_forwarded": 0,
              "row_hits": 0, "accesses": 0}
    utilization: List[float] = []
    traced_s = 0.0
    with traced_experiment(rec, systems):
        for scheme in SCHEME_ORDER:
            rec.cell = f"{scheme}/{TRACED_BENCHMARK}"
            with rec.span("harness.cell", "harness") as cell:
                with rec.span("schemes.fabric_build", "schemes"):
                    fabric = build_fabric(scheme, cfg)
                methods = {name: "noc.fabric_io" for name in FABRIC_IO}
                methods["tick"] = "noc.fabric_tick"
                rec.wrap(fabric, "noc", methods)
                with rec.span("harness.run_with_fabric", "harness"):
                    result = run_with_fabric(
                        fabric, TRACED_BENCHMARK, cfg, scheme
                    )
            traced_s += cell.busy
            untraced = reference[(scheme, TRACED_BENCHMARK)]
            out.check(
                f"traced {rec.cell} reproduces the untraced fingerprint",
                result.stats_fingerprint == untraced.stats_fingerprint
                and result.cycles == untraced.cycles,
            )
            # Fold the simulated counts in now and let the system go, so
            # later cells do not run beside nine live fabrics.
            system = systems.pop()
            counts["pe_stall"] += result.pe_stall_cycles
            counts["cb_stall"] += result.cb_stall_cycles
            counts["fast_forwarded"] += system.fast_forwarded_cycles
            for bank in system.banks.values():
                stack = bank.memory.stack
                counts["row_hits"] += stack.row_hits
                counts["accesses"] += stack.reads + stack.writes
                utilization.append(stack.utilization(result.cycles))
            del system, fabric, result
    rec.cell = ""
    by_name = spans.self_by(rec.spans, lambda s: s.name)
    for metric, span_name in (
        ("gpu.system_init_s", "gpu.system_init"),
        ("gpu.system_loop_s", "gpu.system_loop"),
        ("gpu.pe_s", "gpu.pe"),
        ("gpu.cb_s", "gpu.cb"),
        ("mem.hbm_s", "mem.hbm"),
        ("noc.fabric_tick_s", "noc.fabric_tick"),
        ("noc.fabric_io_s", "noc.fabric_io"),
        ("power.energy_area_s", "power.energy_area"),
        ("harness.reduce_s", "harness.run_with_fabric"),
    ):
        out.put(metric, by_name.get(span_name, 0.0))
    out.put("gpu.pe_stall_cycles", counts["pe_stall"])
    out.put("gpu.cb_stall_cycles", counts["cb_stall"])
    out.put("gpu.fast_forwarded_cycles", counts["fast_forwarded"])
    out.put(
        "mem.row_hit_rate",
        counts["row_hits"] / counts["accesses"] if counts["accesses"] else 0.0,
    )
    out.put("mem.utilization", statistics.mean(utilization))
    return {"traced_cell_s": traced_s}


def core_probes(cfg, out: Outcome) -> None:
    from repro.core.equinox import design_equinox
    from repro.core.grid import Grid
    from repro.core.mcts import SearchConfig
    from repro.core.placement import nqueen_best

    out.put("core.placement_cold_s", timed(
        lambda: nqueen_best(Grid(cfg.width), cfg.num_cbs)
    ))
    start = time.perf_counter()
    design = design_equinox(
        cfg.width, cfg.num_cbs,
        SearchConfig(iterations_per_level=cfg.mcts_iterations, seed=cfg.seed),
    )
    out.put("core.design_cold_s", time.perf_counter() - start)
    out.put("core.mcts_eval_cache_hit_rate", design.search.eval_cache_hit_rate)


def scheme_probes(cfg, out: Outcome) -> None:
    """``build_fabric`` over every scheme an engine supports, warm cache."""
    from repro.harness.experiment import build_fabric
    from repro.schemes import SCHEME_ORDER, get_spec

    for engine in catalog.ENGINES:
        engine_cfg = replace(cfg, engine=engine)
        out.put(f"schemes.fabric_build_s.{engine}", sum(
            timed(lambda: build_fabric(scheme, engine_cfg))
            for scheme in SCHEME_ORDER
            if engine in get_spec(scheme).engines
        ))


def harness_probes(work: Path, cfg, sample_result, out: Outcome) -> None:
    """Direct timings of the queue, the store and the disk design cache."""
    from repro.harness import cache
    from repro.harness.bus import MemoryBus, SqliteBus
    from repro.harness.metrics import result_to_dict
    from repro.harness.store import DirectoryResultStore, make_record

    payload = {"probe": True}
    result_dict = result_to_dict(sample_result)
    buses = {
        "memory": MemoryBus(),
        "sqlite": SqliteBus(work / "probe-bus.sqlite"),
    }
    for kind, bus in buses.items():
        def roundtrips(bus=bus) -> None:
            for i in range(BUS_TASKS):
                bus.put(f"task-{i:04d}", payload)
            for _ in range(BUS_TASKS):
                lease = bus.lease("probe", 60.0, os.getpid())
                bus.ack(lease.token, result_dict)

        out.put(
            f"harness.bus_roundtrip_us.{kind}", timed(roundtrips) / BUS_TASKS * 1e6
        )
    store = DirectoryResultStore(work / "probe-store")
    records = [
        make_record("EquiNox", TRACED_BENCHMARK, replace(cfg, seed=10_000 + i),
                    sample_result)
        for i in range(STORE_RECORDS)
    ]
    put_s = timed(lambda: [store.put(r) for r in records])
    get_s = timed(lambda: [store.get(r["key"]) for r in records])
    out.put("harness.store_put_ms", put_s / STORE_RECORDS * 1e3)
    out.put("harness.store_get_ms", get_s / STORE_RECORDS * 1e3)

    def disk_hit() -> None:
        cache.clear()  # tier 1 only: the next lookup reads the disk tier
        cache.equinox_design(
            cfg.width, cfg.num_cbs, iterations_per_level=cfg.mcts_iterations,
            seed=cfg.seed,
        )

    median_put(
        out, "harness.design_cache_disk_hit_ms",
        [timed(disk_hit) * 1e3 for _ in range(5)],
    )


def cli_probes(cfg, out: Outcome) -> None:
    """What a ``repro run`` user waits: import cost, then one warm cell."""
    median_put(
        out, "cli.import_s",
        [child_reported_seconds("import repro.cli") for _ in range(3)],
    )
    args = [
        "-m", "repro", "run", "--scheme", "EquiNox",
        "--benchmark", TRACED_BENCHMARK, "--quota", str(QUOTA),
        "--iterations", str(cfg.mcts_iterations), "--seed", str(cfg.seed),
    ]
    median_put(
        out, "cli.run_cell_s",
        [timed(lambda: python_child(args, capture=False)) for _ in range(3)],
    )


def trace(
    name: str, seed: int, out: Outcome, work: Path, rec: spans.Recorder
) -> Dict:
    from repro.harness.experiment import run_experiment
    from repro.schemes import SCHEME_ORDER

    cfg = config(seed)
    core_probes(cfg, out)
    # The traced column through the real 2-worker sweep (cold cache,
    # then warm store): the harness overhead figures.
    cold, cold_wall, warm_wall, hit_rate = sweep_pair(
        work, "trace", [TRACED_BENCHMARK], cfg, out
    )
    out.put("harness.sweep_overhead_s", cold_wall - cold.cell_seconds / JOBS)
    out.put("harness.parallel_efficiency", cold.cell_seconds / (JOBS * cold_wall))
    out.put("harness.sweep_warm_s", warm_wall)
    out.put("harness.store_hit_rate", hit_rate)
    out.put("harness.cell_retries", sum(o.attempts - 1 for o in cold.outcomes))
    # Untraced reference for the traced cells: the same column serially
    # in this process, so traced/untraced compares like with like (the
    # workers' cell times include contention between the two of them).
    start = time.perf_counter()
    reference = {
        (scheme, TRACED_BENCHMARK): run_experiment(scheme, TRACED_BENCHMARK, cfg)
        for scheme in SCHEME_ORDER
    }
    untraced_s = time.perf_counter() - start
    out.check(
        "2-worker sweep and in-process cells give identical fingerprints",
        fingerprints(cold)
        == {key: r.stats_fingerprint for key, r in reference.items()},
    )
    extra = traced_cells(rec, cfg, reference, out)
    out.put("host.trace_overhead_frac", extra["traced_cell_s"] / untraced_s - 1.0)
    scheme_probes(cfg, out)
    harness_probes(work, cfg, reference[("EquiNox", TRACED_BENCHMARK)], out)
    cli_probes(cfg, out)
    out.sim.update(
        cells=len(reference),
        sim_cycles=sum(r.cycles for r in reference.values()),
        grid_digest=grid_digest(cold),
    )
    out.notes.append(
        f"traced pass covers the {TRACED_BENCHMARK} column "
        f"({len(reference)} cells); sweep figures are for that column"
    )
    return extra
