"""The leased work-queue sweep service (``repro sweepd``).

Ties the pieces together: sweep cells become bus tasks
(:mod:`~repro.harness.bus`), workers move them through
lease -> execute -> ack with heartbeats, completed results land on the
bus and (optionally) in the content-addressed store
(:mod:`~repro.harness.store`), and failures follow the deterministic
retry discipline of the in-process runner:

* attempt 0 runs the cell's own seed; cell-failure attempt ``n`` runs
  :func:`~repro.harness.runner.retry_seed`'s seed for ``n`` — exactly
  the sequence the serial runner would use, so any fleet under any
  kill schedule converges on the byte-identical ``stats_fingerprint``;
* a lease that expires (worker SIGKILLed, OOMed, unplugged) re-delivers
  the *same* attempt: crashes never consume the retry budget and never
  reseed;
* a cell that fails ``retries + 1`` times is dead-lettered with its
  traceback and stall dump attached, isolated from the sweep instead
  of poisoning it (``repro sweepd requeue`` replays it later).

The module is deliberately process-agnostic: :func:`worker_loop` runs
the same code inline (serial sweeps), in forked fleet processes
(``run_sweep(jobs=N)``), or in a standalone ``repro sweepd worker``
against a shared SQLite bus on another terminal or host.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import settings
from . import store as store_mod
from .bus import DONE, BusPolicy, Lease, SqliteBus
from .experiment import (
    ExperimentConfig,
    config_digest,
    config_from_dict,
    config_to_dict,
)
from .metrics import ExperimentResult, result_from_dict, result_to_dict

PAYLOAD_SCHEMA = 1
MANIFEST_KEY = "manifest"
POLICY_KEY = "policy"

DEFAULT_LEASE_S = 60.0
DEFAULT_HEARTBEAT_S = 5.0


# ----------------------------------------------------------------------
# Cells <-> bus payloads
# ----------------------------------------------------------------------
def cell_payload(cell) -> Dict[str, object]:
    """The plain-JSON bus payload for one sweep cell."""
    return {
        "schema": PAYLOAD_SCHEMA,
        "scheme": cell.scheme,
        "benchmark": cell.benchmark,
        "config": config_to_dict(cell.config),
    }


def cell_from_payload(payload: Dict[str, object]):
    """Rebuild a :class:`~repro.harness.runner.SweepCell` (strict)."""
    from .runner import SweepCell

    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {payload!r}")
    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise ValueError(
            f"unsupported payload schema {payload.get('schema')!r}"
        )
    for field in ("scheme", "benchmark"):
        if not isinstance(payload.get(field), str):
            raise ValueError(f"payload is missing {field!r}")
    return SweepCell(
        scheme=payload["scheme"],
        benchmark=payload["benchmark"],
        config=config_from_dict(payload.get("config", {})),
    )


def task_id_for(index: int, cell) -> str:
    """A stable, human-greppable task id, unique within one sweep."""
    return (
        f"{index:05d}-{cell.scheme}-{cell.benchmark}-"
        f"{config_digest(cell.config)[:8]}"
    )


def submit(bus, cells: Sequence) -> List[str]:
    """Enqueue a grid of cells; returns their task ids in grid order.

    Also records a manifest (task order + digests) in the bus metadata
    so ``status`` and collection can reason about the whole sweep
    without re-deriving the grid.
    """
    from dataclasses import asdict

    task_ids = []
    for index, cell in enumerate(cells):
        # Shipping point: the submitter's environment goes into the
        # payload (and the task id's digest), not the worker's.
        cell = replace(cell, config=settings.resolve(cell.config))
        task_id = task_id_for(index, cell)
        bus.put(task_id, cell_payload(cell))
        task_ids.append(task_id)
    from .. import __version__

    bus.set_meta(MANIFEST_KEY, {
        "schema": PAYLOAD_SCHEMA,
        "version": __version__,
        "cells": len(task_ids),
        "order": task_ids,
    })
    # Persist the retry policy next to the work, so every worker that
    # opens this bus later (another terminal, another host) applies
    # the same dead-letter discipline as the submitter.
    bus.set_meta(POLICY_KEY, asdict(bus.policy))
    return task_ids


def open_submitted_bus(path: object) -> SqliteBus:
    """Open a bus, adopting the policy recorded at submit time."""
    bus = SqliteBus(path)
    meta = bus.get_meta(POLICY_KEY)
    if meta is not None:
        bus.policy = BusPolicy(**meta)
    return bus


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerOptions:
    """Knobs one worker runs under (all serializable for subprocesses)."""

    lease_s: float = DEFAULT_LEASE_S
    heartbeat_s: float = DEFAULT_HEARTBEAT_S
    # Per-attempt wall-clock limit, 0 = unbounded (worker-side SIGALRM,
    # same as the in-process runner).
    cell_timeout: float = 0.0
    # Idle poll period while other workers still hold leases.
    poll_s: float = 0.05
    # Stop once the queue is fully terminal (True) or as soon as no
    # lease is immediately available (False — "one pass" mode).
    drain: bool = True
    # Stop after this many executed cells (0 = unlimited).
    max_cells: int = 0
    # Test-only chaos hook: SIGKILL self right after taking the N-th
    # lease — mid-cell from the bus's point of view — so crash recovery
    # can be exercised deterministically (see docs/DISTRIBUTED.md).
    chaos_kill_after: int = 0


@dataclass
class WorkerStats:
    """What one worker-loop invocation did."""

    executed: int = 0
    acked: int = 0
    failed: int = 0
    dead: int = 0
    store_hits: int = 0
    stale: int = 0


class _Heartbeat:
    """Renews a lease from a side thread while the cell executes."""

    def __init__(self, bus, token: str, lease_s: float, period_s: float):
        self._bus = bus
        self._token = token
        self._lease_s = lease_s
        self._period_s = max(period_s, 0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            if not self._bus.heartbeat(self._token, self._lease_s):
                return  # lease lost (expired + re-leased): stop renewing

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def attempt_config(cell, failures: int) -> ExperimentConfig:
    """The config for attempt ``failures`` (0-based): retries reseed."""
    from .runner import retry_seed

    if failures <= 0:
        return cell.config
    return replace(
        cell.config, seed=retry_seed(cell.config.seed, failures)
    )


def execute_lease(
    lease: Lease, cell_timeout: float = 0.0
) -> Tuple[Optional[ExperimentResult], Dict[str, object], object, int]:
    """Run one delivery; returns (result, failure-info, cell, seed).

    ``result`` is ``None`` on failure, with the failure described in
    the info dict (traceback, exception type, stall dump, timeout
    flag).  KeyboardInterrupt/SystemExit propagate: a user abort must
    kill the worker, not be recorded as a cell failure.

    The cell runs under its payload's config alone: the submitter
    resolved the environment into it, so this worker's ``REPRO_*``
    variables are scrubbed for the duration.
    """
    from . import runner

    cell = cell_from_payload(lease.payload)
    config = attempt_config(cell, lease.failures)
    info: Dict[str, object] = {}
    try:
        with settings.hermetic_env(), runner._wall_clock_limit(cell_timeout):
            result = runner.run_experiment(
                cell.scheme, cell.benchmark, config
            )
        return result, info, cell, config.seed
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        dump = getattr(exc, "dump", None)
        info = {
            "error": traceback.format_exc(),
            "error_type": type(exc).__name__,
            "stall_dump": dump if isinstance(dump, str) and dump else None,
            "timed_out": isinstance(exc, runner.CellTimeout),
        }
        return None, info, cell, config.seed


def worker_loop(
    bus,
    store=None,
    worker_id: Optional[str] = None,
    options: Optional[WorkerOptions] = None,
    on_terminal: Optional[Callable[[Dict[str, object]], None]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Lease -> execute -> ack until the queue drains (or one pass).

    ``on_terminal`` fires with the full bus record after each task
    *this worker* drove to a terminal state (done or dead) — the
    serial sweep uses it for collection and progress.  ``store``
    short-circuits execution on a content-address hit and records
    fresh results for future sweeps.
    """
    options = options or WorkerOptions()
    worker_id = worker_id or f"worker-{os.getpid()}"
    stats = WorkerStats()
    leases_taken = 0
    while True:
        lease = bus.lease(worker_id, options.lease_s, os.getpid())
        if lease is None:
            if not options.drain or bus.all_terminal():
                break
            # Backoff/not-before waits and other workers' leases: poll.
            time.sleep(options.poll_s)
            continue
        leases_taken += 1
        if 0 < options.chaos_kill_after <= leases_taken:
            os.kill(os.getpid(), signal.SIGKILL)  # test-only crash injection
        cell = cell_from_payload(lease.payload)
        start = time.perf_counter()
        if store is not None:
            key = store_mod.result_key(cell.scheme, cell.benchmark,
                                       cell.config)
            hit = store.get(key)
            if hit is not None:
                stats.store_hits += 1
                if bus.ack(
                    lease.token,
                    hit["result"],
                    seed_used=hit.get("seed_used"),
                    duration_s=time.perf_counter() - start,
                ):
                    stats.acked += 1
                    if on_terminal is not None:
                        on_terminal(bus.record(lease.task_id))
                else:
                    stats.stale += 1
                continue
        with _Heartbeat(bus, lease.token, options.lease_s,
                        options.heartbeat_s):
            result, info, cell, seed = execute_lease(
                lease, options.cell_timeout
            )
        duration = time.perf_counter() - start
        stats.executed += 1
        if result is not None:
            if bus.ack(
                lease.token,
                result_to_dict(result),
                seed_used=seed,
                duration_s=duration,
            ):
                stats.acked += 1
                if store is not None:
                    store.put(store_mod.make_record(
                        cell.scheme, cell.benchmark, cell.config, result,
                        seed_used=seed,
                        attempts=lease.failures + 1,
                        duration_s=duration,
                    ))
                if on_terminal is not None:
                    on_terminal(bus.record(lease.task_id))
            else:
                stats.stale += 1
        else:
            verdict = bus.nack(
                lease.token,
                error=info["error"],
                error_type=info["error_type"],
                stall_dump=info["stall_dump"],
                timed_out=info["timed_out"],
                seed_used=seed,
                duration_s=duration,
            )
            if verdict == "stale":
                stats.stale += 1
            else:
                stats.failed += 1
                if verdict == "dead":
                    stats.dead += 1
                    if on_terminal is not None:
                        on_terminal(bus.record(lease.task_id))
        if log is not None:
            state = "ok" if result is not None else "failed"
            log(f"[{worker_id}] {cell.label}: {state} ({duration:.1f}s)")
        if options.max_cells and stats.executed >= options.max_cells:
            break
    return stats


# ----------------------------------------------------------------------
# Fleet: worker subprocesses over a SQLite bus
# ----------------------------------------------------------------------
def _worker_process_entry(
    bus_path: str,
    policy_kwargs: Dict[str, object],
    store_root: Optional[str],
    worker_id: str,
    options_kwargs: Dict[str, object],
) -> None:
    """Module-level (hence picklable) fleet worker entry point."""
    bus = SqliteBus(bus_path, policy=BusPolicy(**policy_kwargs))
    store = (
        store_mod.DirectoryResultStore(store_root)
        if store_root is not None else None
    )
    worker_loop(
        bus, store=store, worker_id=worker_id,
        options=WorkerOptions(**options_kwargs),
    )


def spawn_fleet(
    bus_path: str,
    workers: int,
    policy: BusPolicy,
    options: WorkerOptions,
    store_root: Optional[str] = None,
) -> List[multiprocessing.Process]:
    """Start ``workers`` independent worker processes over one bus.

    Plain ``multiprocessing.Process`` (not a pool) on purpose: one
    SIGKILLed worker must not take the others down, and its leases
    must simply expire for the survivors to pick up.
    """
    from dataclasses import asdict

    procs = []
    for index in range(workers):
        proc = multiprocessing.Process(
            target=_worker_process_entry,
            args=(
                bus_path,
                asdict(policy),
                store_root,
                f"fleet-{index}",
                asdict(options),
            ),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


# ----------------------------------------------------------------------
# Collection / status / requeue
# ----------------------------------------------------------------------
def outcome_from_record(cell, record: Dict[str, object]):
    """Rebuild a :class:`~repro.harness.runner.CellOutcome` from the bus.

    Floats survive the JSON round trip exactly, so an outcome
    collected off the bus is bit-identical to one computed in-process
    (the same contract the result store relies on).
    """
    from .runner import CellOutcome

    ok = record["state"] == DONE
    result = None
    if ok:
        result = result_from_dict(record["result"])
    failures = int(record.get("failures", 0))
    return CellOutcome(
        cell=cell,
        result=result,
        error=None if ok else record.get("error"),
        duration_s=float(record.get("duration_s") or 0.0),
        pid=int(record.get("worker_pid") or 0),
        stall_dump=None if ok else record.get("stall_dump"),
        attempts=failures + 1 if ok else max(failures, 1),
        timed_out=bool(record.get("timed_out")) and not ok,
        error_type=None if ok else record.get("error_type"),
        seed_used=record.get("seed_used"),
    )


def status(bus) -> Dict[str, object]:
    """A JSON-friendly snapshot of one bus: counts + dead letters."""
    counts = bus.counts()
    manifest = bus.get_meta(MANIFEST_KEY) or {}
    dead = [
        {
            "task_id": record["task_id"],
            "scheme": record["payload"].get("scheme"),
            "benchmark": record["payload"].get("benchmark"),
            "failures": record["failures"],
            "deliveries": record["deliveries"],
            "reason": record["dead_reason"],
            "error_type": record["error_type"],
            "timed_out": record["timed_out"],
            "has_stall_dump": bool(record["stall_dump"]),
        }
        for record in bus.dead_letters()
    ]
    total = sum(counts.values())
    return {
        "cells": manifest.get("cells", total),
        "version": manifest.get("version"),
        "counts": counts,
        "complete": counts["pending"] == 0 and counts["leased"] == 0,
        "dead_letters": dead,
    }


def requeue_dead(bus, task_ids: Optional[Sequence[str]] = None) -> int:
    """Return dead letters to the queue with a fresh retry budget."""
    return bus.requeue(task_ids)


def fingerprints(bus) -> Dict[str, str]:
    """task_id -> stats_fingerprint for every completed task."""
    prints = {}
    for record in bus.records([DONE]):
        result = record.get("result") or {}
        prints[record["task_id"]] = result.get("stats_fingerprint", "")
    return prints


def dead_letter_dump(record: Dict[str, object]) -> str:
    """Human-readable rendering of one dead-letter record."""
    payload = record.get("payload") or {}
    lines = [
        f"task {record['task_id']}: "
        f"{payload.get('scheme')} x {payload.get('benchmark')} "
        f"({record.get('dead_reason')}, {record.get('failures')} "
        f"failures, {record.get('deliveries')} deliveries)",
    ]
    if record.get("error"):
        lines.append(str(record["error"]).rstrip())
    if record.get("stall_dump"):
        lines.append(str(record["stall_dump"]).rstrip())
    return "\n".join(lines)


def manifest_cells(bus):
    """Rebuild (task_id, cell) pairs from a submitted sweep's manifest."""
    manifest = bus.get_meta(MANIFEST_KEY)
    if manifest is None:
        raise ValueError("bus has no sweep manifest (nothing submitted?)")
    pairs = []
    for task_id in manifest.get("order", []):
        record = bus.record(task_id)
        if record is None:
            raise ValueError(f"manifest names unknown task {task_id!r}")
        pairs.append((task_id, cell_from_payload(record["payload"])))
    return pairs
