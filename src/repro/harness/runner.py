"""Parallel experiment execution: fan a sweep grid out across cores.

Every ``(scheme, benchmark, config)`` cell of a sweep is an independent
deterministic simulation, which makes the grid embarrassingly parallel:

* :func:`expand_grid` turns a scheme x benchmark grid into an explicit
  list of :class:`SweepCell` jobs, each carrying its own fully-resolved
  :class:`~repro.harness.experiment.ExperimentConfig` (including its
  seed and whatever the submitter's ``REPRO_*`` environment set,
  :func:`repro.settings.resolve`), so a cell's outcome never depends
  on worker scheduling or on a worker's environment;
* :func:`run_sweep` executes the cells as a thin client of the
  work-queue bus (:mod:`~repro.harness.bus`): serially the worker
  loop runs inline over an in-memory bus, for ``jobs>1`` independent
  worker processes lease cells from a private SQLite bus — recording
  per-cell timing and keeping the sweep alive when a cell fails (the
  error text is captured in its :class:`CellOutcome`, and cells that
  fail beyond the retry budget land in the bus's dead-letter queue
  instead of aborting the batch);
* :func:`warm_design_cache` precomputes each distinct MCTS/N-Queen
  artefact once in the parent before forking, so workers load it from
  the disk tier of :mod:`~repro.harness.cache` instead of redoing the
  search per process.

Robustness: every cell attempt can be bounded by a wall-clock timeout
(SIGALRM-based, ``REPRO_CELL_TIMEOUT``) and failed attempts can be
retried with exponential backoff under a fresh deterministic seed
(``REPRO_RETRIES``).  Resuming a killed sweep is re-running it with
the same ``store`` (:mod:`~repro.harness.store`): finished cells are
served from it, only the missing or failed ones execute.

Determinism contract: for a fixed ``(seed, config)``, serial and
parallel execution (and cold vs warm disk cache) produce bit-identical
results — the determinism tests compare ``stats_fingerprint`` digests
across all four combinations.  The bus extends the same contract to
any worker fleet size and any kill schedule: a crashed worker's lease
expires and the cell re-runs under the *same* seed (crashes never
consume the retry budget), so the re-delivered result is byte-equal
to what the dead worker would have produced.
"""

from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import settings
from ..schemes import get_config
from . import cache
from .experiment import ExperimentConfig

# Not called here: ``service.execute_lease`` resolves it through this
# module, which makes ``runner.run_experiment`` the one seam tests patch.
from .experiment import run_experiment  # noqa: F401
from .metrics import ExperimentResult, format_table


class CellTimeout(RuntimeError):
    """One sweep-cell attempt exceeded its wall-clock limit."""


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work."""

    scheme: str
    benchmark: str
    config: ExperimentConfig

    @property
    def key(self) -> Tuple[str, str]:
        return (self.scheme, self.benchmark)

    @property
    def label(self) -> str:
        return f"{self.scheme} x {self.benchmark}"


@dataclass
class CellOutcome:
    """What happened to one cell: its result or its error, plus timing."""

    cell: SweepCell
    result: Optional[ExperimentResult]
    error: Optional[str]
    duration_s: float
    pid: int
    # Structured diagnostic dump when the failure was a watchdog stall
    # or a conservation-audit violation (SimulationStall /
    # NetworkAuditError carry it on their ``dump`` attribute).
    stall_dump: Optional[str] = None
    # Attempts consumed (1 = first try succeeded or no retries left).
    attempts: int = 1
    # The last failed attempt hit the wall-clock limit.
    timed_out: bool = False
    # Exception class name of the recorded failure (None when ok).
    error_type: Optional[str] = None
    # Seed the recorded attempt actually ran with (retries reseed).
    seed_used: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """All cell outcomes of one sweep, in grid order."""

    outcomes: List[CellOutcome]
    wall_s: float
    jobs: int

    def _keyed(self) -> List[CellOutcome]:
        """``outcomes``, once each ``(scheme, benchmark)`` key is known
        to name one of them: two outcomes on one key (say two widths)
        raise instead of the mappings silently keeping the last."""
        seen: Dict[Tuple[str, str], ExperimentConfig] = {}
        for o in self.outcomes:
            if o.cell.key in seen:
                raise ValueError(
                    f"{o.cell.label} ran twice, under {seen[o.cell.key]} "
                    f"and {o.cell.config}: read .outcomes instead"
                )
            seen[o.cell.key] = o.cell.config
        return self.outcomes

    def results(self) -> Dict[Tuple[str, str], ExperimentResult]:
        """Successful cells as the classic ``run_suite`` mapping."""
        return {o.cell.key: o.result for o in self._keyed() if o.ok}

    def errors(self) -> Dict[Tuple[str, str], str]:
        """Failed cells and their captured tracebacks."""
        return {o.cell.key: o.error for o in self._keyed() if not o.ok}

    @property
    def cell_seconds(self) -> float:
        """Total single-core work: sum of per-cell durations."""
        return sum(o.duration_s for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Aggregate work time over wall time (1.0 when serial)."""
        return self.cell_seconds / self.wall_s if self.wall_s else 0.0

    def summary(self, slowest: int = 5) -> str:
        """A human-readable timing summary (slowest cells first)."""
        ranked = sorted(
            self.outcomes, key=lambda o: o.duration_s, reverse=True
        )
        rows = [
            (
                o.cell.label,
                o.duration_s,
                "ok" if o.ok else "FAILED",
            )
            for o in ranked[:slowest]
        ]
        lines = [
            f"{len(self.outcomes)} cells, "
            f"{sum(not o.ok for o in self.outcomes)} failed, "
            f"jobs={self.jobs}: {self.cell_seconds:.1f}s of work in "
            f"{self.wall_s:.1f}s wall ({self.speedup:.2f}x)",
            format_table(("Cell", "Seconds", "Status"), rows),
        ]
        return "\n".join(lines)


def cell_seed(base_seed: int, scheme: str, benchmark: str) -> int:
    """A deterministic per-cell seed, independent of grid order.

    Derived by hashing rather than by enumeration index so inserting or
    removing cells never shifts any other cell's seed.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{scheme}:{benchmark}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def expand_grid(
    schemes: Sequence[str],
    benchmarks: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reseed_cells: bool = False,
) -> List[SweepCell]:
    """Materialise a scheme x benchmark grid as sweep cells.

    With ``reseed_cells`` every cell gets its own :func:`cell_seed`
    (decorrelated workloads); by default all cells share the base seed,
    matching the historical serial ``run_suite`` behaviour exactly.
    """
    config = settings.resolve(config or ExperimentConfig())
    cells: List[SweepCell] = []
    for scheme in schemes:
        for benchmark in benchmarks:
            cfg = config
            if reseed_cells:
                cfg = replace(
                    config, seed=cell_seed(config.seed, scheme, benchmark)
                )
            cells.append(SweepCell(scheme, benchmark, cfg))
    return cells


def retry_seed(base_seed: int, attempt: int) -> int:
    """Deterministic seed for retry ``attempt`` (1-based) of a cell.

    Hash-derived like :func:`cell_seed`, so every retry of every cell
    is reproducible in isolation without replaying the failed seed.
    """
    digest = hashlib.sha256(f"retry:{base_seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@contextmanager
def _wall_clock_limit(seconds: float) -> Iterator[None]:
    """Raise :class:`CellTimeout` if the body outlives ``seconds``.

    SIGALRM/``setitimer`` based, so it bounds wall-clock time even
    inside the tight simulation loop (no cooperative polling needed).
    A no-op when ``seconds <= 0``, on platforms without ``setitimer``,
    or off the main thread — signal handlers can only be installed on
    the main thread, and pool workers run cells on theirs.
    """
    if (
        seconds <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum: int, frame: object) -> None:
        raise CellTimeout(
            f"cell exceeded {seconds:.3g}s wall-clock limit"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    # An outer scope (nested limits, or a caller with its own alarm
    # discipline) may already have an itimer armed; cancelling it on
    # exit would silently disable that timeout.  Save it and re-arm
    # whatever time it has left when we tear down.
    outer_remaining, outer_interval = signal.getitimer(signal.ITIMER_REAL)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining > 0.0:
            elapsed = time.monotonic() - start
            # If the outer deadline already passed while ours was
            # armed, fire it (almost) immediately under the restored
            # handler rather than dropping it.
            remaining = max(outer_remaining - elapsed, 1e-6)
            signal.setitimer(signal.ITIMER_REAL, remaining, outer_interval)


def warm_design_cache(cells: Sequence[SweepCell]) -> None:
    """Compute each distinct design artefact once, before forking.

    Without this every worker would rediscover a cold cache and rerun
    the same MCTS search; after it, workers hit the disk tier (or, when
    forked, inherit the in-memory tier directly).
    """
    seen = set()
    for cell in cells:
        scheme = get_config(cell.scheme)
        cfg = cell.config
        if scheme.equinox:
            key = ("design", cfg.width, cfg.num_cbs,
                   cfg.mcts_iterations, cfg.seed)
            if key not in seen:
                cache.equinox_design(
                    cfg.width,
                    cfg.num_cbs,
                    iterations_per_level=cfg.mcts_iterations,
                    seed=cfg.seed,
                )
        else:
            key = ("placement", scheme.placement_name, cfg.width, cfg.num_cbs)
            if key not in seen:
                cache.placement(scheme.placement_name, cfg.width, cfg.num_cbs)
        seen.add(key)


def _report_progress(outcome: CellOutcome, done: int, total: int) -> None:
    if outcome.ok:
        status = "ok"
    elif outcome.timed_out:
        status = "FAILED (timeout)"
    else:
        status = "FAILED"
    if outcome.attempts > 1:
        status += f" after {outcome.attempts} attempts"
    print(
        f"[sweep {done}/{total}] {outcome.cell.label}: {status} "
        f"({outcome.duration_s:.1f}s, pid {outcome.pid})",
        flush=True,
    )


# Lease bounds for the internal worker fleet: long enough that only a
# dead worker's lease ever expires (live ones heartbeat well inside
# it), short enough that crash recovery doesn't stall a sweep.
FLEET_LEASE_S = 30.0
FLEET_HEARTBEAT_S = 2.0


def run_sweep(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    progress: bool = False,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff_s: float = 0.05,
    store: Optional[object] = None,
) -> SweepReport:
    """Run sweep cells, optionally across ``jobs`` worker processes.

    A thin client of the work-queue bus (:mod:`~repro.harness.bus`):
    every cell flows through lease -> execute -> ack.  Serially the
    worker loop runs inline over an in-memory bus; with ``jobs > 1``
    the cells go onto a private SQLite bus and ``jobs`` independent
    worker processes drain it.  A SIGKILLed or wedged worker only
    costs its in-flight lease: the lease expires and the cell is
    re-delivered — same attempt, same seed, byte-identical result —
    to a surviving worker, or to a serial fallback drain in this
    process if the whole fleet dies (restricted sandboxes, OOM kills).

    A failed cell never aborts the sweep: after ``retries`` reseeded
    attempts it is dead-lettered and reported as a failed outcome with
    its traceback/stall dump, while the remaining cells keep running.

    ``cell_timeout`` (seconds per attempt) and ``retries`` default to
    the ``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRIES`` env vars, so CI can
    arm a whole sweep without threading flags through.  ``store``
    names a content-addressed result store
    (:mod:`~repro.harness.store`): hits skip execution, fresh results
    are recorded by whichever worker computed them, so re-running a
    killed sweep with the same store resumes it.  Fleet workers reopen
    the store by its ``root`` directory, so ``jobs > 1`` needs a
    directory-backed store.
    """
    from . import service
    from .bus import DEAD, DONE, BusPolicy, MemoryBus, SqliteBus

    # The submitter's environment is folded into each cell here, before
    # anything is keyed or shipped; workers run the payload as given.
    cells = [
        replace(cell, config=settings.resolve(cell.config)) for cell in cells
    ]
    if cell_timeout is None:
        cell_timeout = settings.from_env("cell_timeout")
    if retries is None:
        retries = settings.from_env("retries")
    retries = max(0, retries)
    jobs = max(1, jobs)
    store_root = getattr(store, "root", None)
    if jobs > 1 and store is not None and store_root is None:
        raise ValueError(
            f"jobs={jobs} needs a directory-backed store (one with a "
            f".root the worker processes can reopen), got "
            f"{type(store).__name__}"
        )
    start = time.perf_counter()
    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    policy = BusPolicy(retries=retries, backoff_s=backoff_s)
    options = service.WorkerOptions(
        lease_s=FLEET_LEASE_S, heartbeat_s=FLEET_HEARTBEAT_S,
        cell_timeout=cell_timeout,
    )
    task_index: Dict[str, int] = {}
    handled: set = set()

    def handle_terminal(record: Optional[Dict[str, object]]) -> None:
        """Record + report one task that reached done/dead (once)."""
        if record is None or record["task_id"] in handled:
            return
        handled.add(record["task_id"])
        index = task_index[record["task_id"]]
        outcome = service.outcome_from_record(cells[index], record)
        outcomes[index] = outcome
        if progress:
            _report_progress(outcome, len(handled), total)

    def enqueue(bus: object) -> None:
        for index, cell in enumerate(cells):
            task_id = service.task_id_for(index, cell)
            task_index[task_id] = index
            bus.put(task_id, service.cell_payload(cell))

    def drain_terminal(bus: object) -> None:
        for record in bus.records([DONE, DEAD]):
            handle_terminal(record)

    if cells and (jobs <= 1 or total == 1):
        memory_bus = MemoryBus(policy=policy)
        enqueue(memory_bus)
        service.worker_loop(
            memory_bus, store=store, options=options,
            on_terminal=handle_terminal,
        )
        drain_terminal(memory_bus)
    elif cells:
        warm_design_cache(cells)
        with tempfile.TemporaryDirectory(prefix="repro-sweep-bus-") as tmp:
            bus = SqliteBus(os.path.join(tmp, "bus.sqlite"), policy=policy)
            enqueue(bus)
            procs: List[object] = []
            try:
                procs = service.spawn_fleet(
                    bus.path, min(jobs, total), policy, options,
                    store_root=(
                        str(store_root) if store_root is not None else None
                    ),
                )
            except (OSError, ValueError) as exc:
                if progress:
                    print(
                        f"[sweep] worker fleet unavailable ({exc!r}); "
                        "finishing serially",
                        flush=True,
                    )
            try:
                while procs:
                    # The parent is the lease reaper: a SIGKILLed
                    # worker's cells come back here and a surviving
                    # worker re-leases them.
                    bus.expire()
                    drain_terminal(bus)
                    if bus.all_terminal():
                        break
                    if not any(p.is_alive() for p in procs):
                        break  # whole fleet died: fall back below
                    time.sleep(0.05)
                for proc in procs:
                    proc.join(timeout=5.0)
                if not bus.all_terminal():
                    # Serial fallback: every worker is gone, so their
                    # leases can be force-expired safely and the rest
                    # of the sweep drained in this process.
                    if progress and procs:
                        print(
                            "[sweep] worker fleet exited early; "
                            "finishing serially",
                            flush=True,
                        )
                    bus.expire(float("inf"))
                    service.worker_loop(
                        bus, store=store, options=options,
                        on_terminal=handle_terminal,
                    )
                drain_terminal(bus)
            finally:
                for proc in procs:
                    if proc.is_alive():
                        proc.terminate()
                bus.close()
    return SweepReport(
        outcomes=outcomes,
        wall_s=time.perf_counter() - start,
        jobs=jobs,
    )


def sweep(
    schemes: Sequence[str],
    benchmarks: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    progress: bool = False,
    reseed_cells: bool = False,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    store: Optional[object] = None,
) -> SweepReport:
    """Grid convenience wrapper: :func:`expand_grid` + :func:`run_sweep`."""
    cells = expand_grid(schemes, benchmarks, config, reseed_cells)
    return run_sweep(
        cells,
        jobs=jobs,
        progress=progress,
        cell_timeout=cell_timeout,
        retries=retries,
        store=store,
    )
