"""Broker-agnostic work-queue bus: leases, retries, dead letters.

The distributed sweep service moves cells through a small message-bus
contract instead of handing them to a process pool directly.  One
implementation, two paths: :class:`SqliteBus` is the lease state
machine, written once in SQL, each operation its own short ``BEGIN
IMMEDIATE`` transaction so workers can crash at any instruction
without corrupting the queue.

* ``SqliteBus(path)`` — one SQLite file shared by any number of worker
  *processes* on a host (or a shared filesystem);
* :class:`MemoryBus` — the same class on a private ``":memory:"``
  database, for in-process fleets and the serial sweep path (and for
  tests, which inject a manual clock).  An in-process
  put + lease + ack costs ~106 us this way (the dict it replaced took
  ~36 us; the file bus is fsync-bound at ~4 ms), about 2 ms on a
  27-cell serial sweep.

Lifecycle of a task::

    put -> pending -> lease -> leased -> ack  -> done
                        ^         |      nack -> pending (retry) or dead
                        |         v
                        +--- lease expiry (crashed/silent worker)

Failure semantics are split in two, because the two failure modes must
not share a budget:

* an explicit :meth:`~SqliteBus.nack` means *the cell itself failed*
  (the simulation raised); it increments ``failures`` and the next
  delivery runs under the deterministic retry seed for that attempt.
  After ``retries`` failures the task is dead-lettered with its
  traceback/stall dump attached (``exhausted-retries``).
* a **lease expiry** means *the worker died or went silent* (SIGKILL,
  OOM, power loss); the task is re-delivered with ``failures``
  unchanged, so the re-run uses the *same* seed and — simulations
  being deterministic — produces the byte-identical result the dead
  worker would have.  A ``redelivery_limit`` guard dead-letters tasks
  that crash every worker that touches them (``crash-loop``).

Live workers renew their lease with :meth:`~SqliteBus.heartbeat`; a
wedged-but-alive cell is therefore bounded by the per-attempt
wall-clock timeout inside the worker, not by lease expiry.  Duplicate
delivery (an expired lease re-leased while the original worker limps
on) is resolved by the lease token: only the current token can ack or
nack, stale completions are reported as such and dropped — harmless,
because both deliveries compute the same bytes.

Results ride the bus: ``ack`` attaches the plain-JSON result record,
stored as JSON text, so in-memory and cross-process fleets observe
byte-identical payloads (floats survive ``json`` exactly).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

# Task states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
DEAD = "dead"
STATES = (PENDING, LEASED, DONE, DEAD)

# Dead-letter reasons.
REASON_RETRIES = "exhausted-retries"
REASON_CRASH_LOOP = "crash-loop"

# nack() verdicts.
NACK_RETRY = "retry"
NACK_DEAD = "dead"
NACK_STALE = "stale"


@dataclass(frozen=True)
class BusPolicy:
    """Retry discipline the bus applies on failures and crashes."""

    # Cell-failure budget: a task may fail (nack) this many times and
    # still be retried; failure number ``retries + 1`` dead-letters it.
    retries: int = 0
    # Redelivery delay after failure ``n`` (1-based) is
    # ``backoff_s * 2**(n-1)`` — the old in-process retry backoff,
    # expressed as queue time instead of a worker sleep.
    backoff_s: float = 0.05
    # Crash budget: extra deliveries (beyond the ``retries + 1``
    # failure attempts) a task may consume through lease expiry before
    # it is presumed to be killing its workers and dead-lettered.
    redelivery_limit: int = 5

    @property
    def max_deliveries(self) -> int:
        return self.retries + 1 + self.redelivery_limit

    def backoff_for(self, failures: int) -> float:
        if failures <= 0:
            return 0.0
        return self.backoff_s * (2 ** (failures - 1))


@dataclass(frozen=True)
class Lease:
    """One delivery of a task to a worker."""

    task_id: str
    payload: Dict[str, object]
    token: str
    # Explicit cell failures so far: the attempt number (0-based) the
    # worker must derive its deterministic seed from.
    failures: int
    # Total deliveries including this one (crash redeliveries count).
    deliveries: int
    deadline: float


def _new_token() -> str:
    return uuid.uuid4().hex


def _crash_loop_error(task_deliveries: int) -> str:
    return (
        f"lease expired on all {task_deliveries} deliveries; the task "
        "is presumed to crash or wedge every worker that leases it"
    )


_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    task_id TEXT UNIQUE NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    failures INTEGER NOT NULL DEFAULT 0,
    deliveries INTEGER NOT NULL DEFAULT 0,
    not_before REAL NOT NULL DEFAULT 0,
    token TEXT,
    worker TEXT,
    worker_pid INTEGER,
    deadline REAL,
    result TEXT,
    error TEXT,
    error_type TEXT,
    stall_dump TEXT,
    timed_out INTEGER NOT NULL DEFAULT 0,
    seed_used INTEGER,
    duration_s REAL NOT NULL DEFAULT 0,
    dead_reason TEXT
);
CREATE INDEX IF NOT EXISTS tasks_state ON tasks (state, not_before, seq);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class SqliteBus:
    """The lease state machine: one SQLite database, short transactions.

    The bus holds one connection and runs every operation as its own
    ``BEGIN IMMEDIATE`` transaction under a lock (:meth:`_txn`), so it
    tolerates workers dying at any instruction (SQLite's journal rolls
    a torn transaction back) and is safe to use from the heartbeat
    thread and the worker loop at once.  Fleet workers open the file
    themselves; nothing uses a connection inherited across ``fork``.
    Defaults to the wall clock (``time.time``), the only clock worker
    processes share.
    """

    def __init__(
        self,
        path: object,
        policy: Optional[BusPolicy] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = str(path)
        self.policy = policy or BusPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        # Autocommit mode: _txn issues BEGIN/COMMIT itself.  ``timeout``
        # is how long an operation waits on another process's lock.
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, isolation_level=None,
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One short write transaction on the held connection."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    @staticmethod
    def _row_record(row: sqlite3.Row) -> Dict[str, object]:
        """A task row as plain data, minus the live-lease columns."""
        record = {
            key: row[key] for key in row.keys()
            if key not in ("not_before", "token", "deadline")
        }
        record["payload"] = json.loads(record["payload"])
        if record["result"] is not None:
            record["result"] = json.loads(record["result"])
        record["timed_out"] = bool(record["timed_out"])
        return record

    # -- producer ------------------------------------------------------
    def put(self, task_id: str, payload: Dict[str, object]) -> bool:
        """Enqueue a task; a duplicate ``task_id`` is a no-op (False)."""
        with self._txn() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO tasks (task_id, payload) "
                "VALUES (?, ?)",
                (task_id, json.dumps(payload)),
            )
            return cursor.rowcount > 0

    # -- worker --------------------------------------------------------
    def lease(
        self,
        worker: str,
        lease_s: float,
        worker_pid: Optional[int] = None,
    ) -> Optional[Lease]:
        """Deliver the next due task, bounded by ``lease_s`` seconds.

        Expires stale leases first, so a single polling worker is
        enough to recover a dead fleet's in-flight work.
        """
        now = self._clock()
        worker_pid = os.getpid() if worker_pid is None else worker_pid
        with self._txn() as conn:
            self._expire_in(conn, now)
            while True:
                row = conn.execute(
                    "SELECT * FROM tasks WHERE state = ? AND "
                    "not_before <= ? ORDER BY seq LIMIT 1",
                    (PENDING, now),
                ).fetchone()
                if row is None:
                    return None
                if row["deliveries"] >= self.policy.max_deliveries:
                    conn.execute(
                        "UPDATE tasks SET state = ?, token = NULL, "
                        "deadline = NULL, dead_reason = ?, error = ?, "
                        "error_type = COALESCE(error_type, ?) "
                        "WHERE seq = ?",
                        (
                            DEAD, REASON_CRASH_LOOP,
                            _crash_loop_error(row["deliveries"]),
                            "LeaseExpired", row["seq"],
                        ),
                    )
                    continue
                token = _new_token()
                deadline = now + lease_s
                conn.execute(
                    "UPDATE tasks SET state = ?, deliveries = "
                    "deliveries + 1, token = ?, worker = ?, "
                    "worker_pid = ?, deadline = ? WHERE seq = ?",
                    (LEASED, token, worker, worker_pid, deadline,
                     row["seq"]),
                )
                return Lease(
                    task_id=row["task_id"],
                    payload=json.loads(row["payload"]),
                    token=token,
                    failures=row["failures"],
                    deliveries=row["deliveries"] + 1,
                    deadline=deadline,
                )

    def heartbeat(self, token: str, lease_s: float) -> bool:
        """Renew a live lease; False means it already expired (stale)."""
        now = self._clock()
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET deadline = ? WHERE token = ? "
                "AND state = ?",
                (now + lease_s, token, LEASED),
            )
            return cursor.rowcount > 0

    def ack(
        self,
        token: str,
        result: Dict[str, object],
        seed_used: Optional[int] = None,
        duration_s: float = 0.0,
    ) -> bool:
        """Complete a leased task with its result; False if stale."""
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET state = ?, token = NULL, "
                "deadline = NULL, result = ?, seed_used = ?, "
                "duration_s = duration_s + ?, error = NULL, "
                "error_type = NULL, stall_dump = NULL, timed_out = 0 "
                "WHERE token = ? AND state = ?",
                (DONE, json.dumps(result), seed_used, duration_s,
                 token, LEASED),
            )
            return cursor.rowcount > 0

    def nack(
        self,
        token: str,
        error: str,
        error_type: Optional[str] = None,
        stall_dump: Optional[str] = None,
        timed_out: bool = False,
        seed_used: Optional[int] = None,
        duration_s: float = 0.0,
    ) -> str:
        """Record a cell failure; returns retry/dead/stale."""
        now = self._clock()
        with self._txn() as conn:
            row = conn.execute(
                "SELECT seq, failures FROM tasks WHERE token = ? "
                "AND state = ?",
                (token, LEASED),
            ).fetchone()
            if row is None:
                return NACK_STALE
            failures = row["failures"] + 1
            dead = failures > self.policy.retries
            conn.execute(
                "UPDATE tasks SET state = ?, failures = ?, "
                "token = NULL, deadline = NULL, not_before = ?, "
                "error = ?, error_type = ?, stall_dump = ?, "
                "timed_out = ?, seed_used = ?, "
                "duration_s = duration_s + ?, dead_reason = ? "
                "WHERE seq = ?",
                (
                    DEAD if dead else PENDING,
                    failures,
                    now + self.policy.backoff_for(failures),
                    error, error_type, stall_dump,
                    1 if timed_out else 0, seed_used, duration_s,
                    REASON_RETRIES if dead else None,
                    row["seq"],
                ),
            )
            return NACK_DEAD if dead else NACK_RETRY

    # -- supervision ---------------------------------------------------
    def expire(self, now: Optional[float] = None) -> List[str]:
        """Return expired leases to the queue; list the affected tasks."""
        now = self._clock() if now is None else now
        with self._txn() as conn:
            return self._expire_in(conn, now)

    def _expire_in(self, conn: sqlite3.Connection, now: float) -> List[str]:
        # ``now`` may be a sentinel far in the future (force-expiry of
        # a confirmed-dead fleet); release the work immediately rather
        # than pushing not_before out with it.
        release = min(now, self._clock())
        rows = conn.execute(
            "SELECT task_id FROM tasks WHERE state = ? AND "
            "deadline IS NOT NULL AND deadline < ? ORDER BY seq",
            (LEASED, now),
        ).fetchall()
        if rows:
            conn.execute(
                "UPDATE tasks SET state = ?, token = NULL, "
                "deadline = NULL, not_before = ? WHERE state = ? AND "
                "deadline IS NOT NULL AND deadline < ?",
                (PENDING, release, LEASED, now),
            )
        return [row["task_id"] for row in rows]

    def counts(self) -> Dict[str, int]:
        with self._txn() as conn:
            counts = {state: 0 for state in STATES}
            for row in conn.execute(
                "SELECT state, COUNT(*) AS n FROM tasks GROUP BY state"
            ):
                counts[row["state"]] = row["n"]
            return counts

    def all_terminal(self) -> bool:
        counts = self.counts()
        return counts[PENDING] == 0 and counts[LEASED] == 0

    def records(
        self, states: Optional[Sequence[str]] = None
    ) -> List[Dict[str, object]]:
        """Full task records in enqueue order (optionally filtered)."""
        states = STATES if states is None else tuple(states)
        marks = ",".join("?" for _ in states)
        with self._txn() as conn:
            rows = conn.execute(
                f"SELECT * FROM tasks WHERE state IN ({marks}) "
                "ORDER BY seq",
                states,
            ).fetchall()
            return [self._row_record(row) for row in rows]

    def record(self, task_id: str) -> Optional[Dict[str, object]]:
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM tasks WHERE task_id = ?", (task_id,)
            ).fetchone()
            return self._row_record(row) if row is not None else None

    def dead_letters(self) -> List[Dict[str, object]]:
        return self.records([DEAD])

    def requeue(self, task_ids: Optional[Sequence[str]] = None) -> int:
        """Return dead-lettered tasks to the queue with a fresh budget.

        Counters reset so the replay starts at attempt 0 — the same
        deterministic seed schedule as a fresh submit.
        """
        sql = (
            "UPDATE tasks SET state = ?, failures = 0, "
            "deliveries = 0, not_before = 0, error = NULL, "
            "error_type = NULL, stall_dump = NULL, timed_out = 0, "
            "dead_reason = NULL, duration_s = 0 WHERE state = ?"
        )
        params: List[object] = [PENDING, DEAD]
        if task_ids is not None:
            marks = ",".join("?" for _ in task_ids)
            sql += f" AND task_id IN ({marks})"
            params.extend(task_ids)
        with self._txn() as conn:
            return conn.execute(sql, params).rowcount

    # -- metadata ------------------------------------------------------
    def set_meta(self, key: str, value: Dict[str, object]) -> None:
        with self._txn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, json.dumps(value, sort_keys=True)),
            )

    def get_meta(self, key: str) -> Optional[Dict[str, object]]:
        with self._txn() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
            return json.loads(row["value"]) if row is not None else None


class MemoryBus(SqliteBus):
    """The same state machine on a private ``":memory:"`` database.

    Lives and dies with the object, so it defaults to the monotonic
    clock (tests inject a manual one).
    """

    def __init__(
        self,
        policy: Optional[BusPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(":memory:", policy=policy, clock=clock)

