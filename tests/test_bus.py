"""Work-queue bus contract: one implementation, both paths.

Every test runs against :class:`MemoryBus` (``":memory:"``) and a
file-backed :class:`SqliteBus` through one parametrized factory with a
manual clock: the same class either way, so lease expiry, retry
budgets, crash-loop guards, duplicate-delivery resolution and payload
round-tripping are checked on the held in-process connection and on a
real file alike.
"""

import os
import sys
import threading

import pytest

from repro.harness.bus import (
    DEAD,
    DONE,
    LEASED,
    NACK_DEAD,
    NACK_RETRY,
    NACK_STALE,
    PENDING,
    REASON_CRASH_LOOP,
    REASON_RETRIES,
    BusPolicy,
    MemoryBus,
    SqliteBus,
    open_bus,
)


class ManualClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(params=["memory", "sqlite"])
def make_bus(request, tmp_path):
    """Factory: make_bus(policy) -> (bus, clock) for either backend."""
    counter = [0]

    def factory(policy=None):
        clock = ManualClock()
        if request.param == "memory":
            return MemoryBus(policy=policy, clock=clock), clock
        counter[0] += 1
        path = tmp_path / f"bus-{counter[0]}.sqlite"
        return SqliteBus(path, policy=policy, clock=clock), clock

    return factory


class TestLifecycle:
    def test_put_lease_ack(self, make_bus):
        bus, _clock = make_bus()
        assert bus.put("t1", {"x": 1})
        lease = bus.lease("w1", 10.0, worker_pid=42)
        assert lease.task_id == "t1"
        assert lease.payload == {"x": 1}
        assert lease.failures == 0 and lease.deliveries == 1
        assert bus.ack(lease.token, {"ok": True}, seed_used=7,
                       duration_s=0.5)
        record = bus.record("t1")
        assert record["state"] == DONE
        assert record["result"] == {"ok": True}
        assert record["seed_used"] == 7
        assert record["worker"] == "w1" and record["worker_pid"] == 42
        assert bus.all_terminal()

    def test_duplicate_put_is_noop(self, make_bus):
        bus, _clock = make_bus()
        assert bus.put("t1", {"x": 1})
        assert not bus.put("t1", {"x": 2})
        lease = bus.lease("w1", 10.0)
        assert lease.payload == {"x": 1}  # first write wins

    def test_fifo_order_and_exclusivity(self, make_bus):
        bus, _clock = make_bus()
        bus.put("a", {})
        bus.put("b", {})
        first = bus.lease("w1", 10.0)
        second = bus.lease("w2", 10.0)
        assert (first.task_id, second.task_id) == ("a", "b")
        assert bus.lease("w3", 10.0) is None  # nothing left to lease
        # The two places the dict bus used to disagree with the SQL
        # one: seq counts from 1, and a lease taken without a
        # worker_pid records the caller's.
        assert [r["seq"] for r in bus.records()] == [1, 2]
        assert [r["worker_pid"] for r in bus.records()] == [os.getpid()] * 2

    def test_payload_floats_roundtrip_exactly(self, make_bus):
        bus, _clock = make_bus()
        payload = {"f": 0.1 + 0.2, "nested": {"g": 1e-300}}
        bus.put("t1", payload)
        lease = bus.lease("w1", 10.0)
        assert lease.payload["f"] == 0.1 + 0.2
        assert lease.payload["nested"]["g"] == 1e-300
        bus.ack(lease.token, {"v": 3.3000000000000003})
        assert bus.record("t1")["result"]["v"] == 3.3000000000000003

    def test_counts_and_records_filter(self, make_bus):
        bus, _clock = make_bus()
        for name in ("a", "b", "c"):
            bus.put(name, {})
        lease = bus.lease("w1", 10.0)
        bus.ack(lease.token, {})
        counts = bus.counts()
        assert counts == {"pending": 2, "leased": 0, "done": 1, "dead": 0}
        assert [r["task_id"] for r in bus.records()] == ["a", "b", "c"]
        assert [r["task_id"] for r in bus.records([PENDING])] == ["b", "c"]
        assert not bus.all_terminal()

    def test_meta_roundtrip(self, make_bus):
        bus, _clock = make_bus()
        assert bus.get_meta("manifest") is None
        bus.set_meta("manifest", {"cells": 3, "order": ["a", "b"]})
        assert bus.get_meta("manifest") == {"cells": 3, "order": ["a", "b"]}
        bus.set_meta("manifest", {"cells": 4})
        assert bus.get_meta("manifest") == {"cells": 4}


class TestLeaseExpiry:
    def test_expired_lease_redelivers_same_attempt(self, make_bus):
        bus, clock = make_bus()
        bus.put("t1", {"x": 1})
        first = bus.lease("w1", 5.0)
        assert bus.lease("w2", 5.0) is None  # held
        clock.advance(6.0)
        second = bus.lease("w2", 5.0)
        assert second is not None
        # A crash redelivery must NOT consume the retry budget or
        # reseed: failures stays 0, only deliveries grows.
        assert second.failures == 0 and second.deliveries == 2

    def test_stale_token_cannot_complete(self, make_bus):
        bus, clock = make_bus()
        bus.put("t1", {})
        first = bus.lease("w1", 5.0)
        clock.advance(6.0)
        second = bus.lease("w2", 5.0)
        # The limping original worker comes back after its lease was
        # re-leased: its completions must be dropped as stale.
        assert bus.ack(first.token, {"from": "w1"}) is False
        assert bus.nack(first.token, error="late") == NACK_STALE
        assert bus.heartbeat(first.token, 5.0) is False
        assert bus.ack(second.token, {"from": "w2"})
        assert bus.record("t1")["result"] == {"from": "w2"}

    def test_heartbeat_extends_lease(self, make_bus):
        bus, clock = make_bus()
        bus.put("t1", {})
        lease = bus.lease("w1", 5.0)
        clock.advance(4.0)
        assert bus.heartbeat(lease.token, 5.0)
        clock.advance(4.0)  # past the original deadline, inside renewal
        assert bus.lease("w2", 5.0) is None
        assert bus.record("t1")["state"] == LEASED

    def test_explicit_expire_lists_tasks(self, make_bus):
        bus, clock = make_bus()
        bus.put("t1", {})
        bus.put("t2", {})
        bus.lease("w1", 5.0)
        bus.lease("w1", 50.0)
        clock.advance(10.0)
        assert bus.expire() == ["t1"]
        assert bus.record("t1")["state"] == PENDING
        assert bus.record("t2")["state"] == LEASED

    def test_force_expire_releases_immediately(self, make_bus):
        # Sentinel force-expiry (confirmed-dead fleet) must make the
        # work due now, not push not_before out to the sentinel.
        bus, _clock = make_bus()
        bus.put("t1", {})
        bus.lease("w1", 60.0)
        assert bus.expire(float("inf")) == ["t1"]
        assert bus.lease("w2", 5.0) is not None

    def test_crash_loop_dead_letters(self, make_bus):
        policy = BusPolicy(retries=0, redelivery_limit=2)
        bus, clock = make_bus(policy)
        bus.put("t1", {})
        for _ in range(policy.max_deliveries):
            assert bus.lease("w1", 1.0) is not None
            clock.advance(2.0)
        # Budget burnt through lease expiry alone: the next lease call
        # dead-letters instead of delivering a poison pill again.
        assert bus.lease("w1", 1.0) is None
        (record,) = bus.dead_letters()
        assert record["task_id"] == "t1"
        assert record["dead_reason"] == REASON_CRASH_LOOP
        assert record["error_type"] == "LeaseExpired"
        assert "3 deliveries" in record["error"]


class TestRetries:
    def test_nack_reschedules_with_backoff(self, make_bus):
        bus, clock = make_bus(BusPolicy(retries=2, backoff_s=4.0))
        bus.put("t1", {})
        lease = bus.lease("w1", 10.0)
        assert bus.nack(lease.token, error="boom",
                        error_type="RuntimeError") == NACK_RETRY
        record = bus.record("t1")
        assert record["state"] == PENDING and record["failures"] == 1
        assert bus.lease("w1", 10.0) is None  # backoff window
        assert bus.next_due() == pytest.approx(clock.now + 4.0)
        clock.advance(4.5)
        retry = bus.lease("w1", 10.0)
        assert retry.failures == 1  # next attempt: deterministic reseed

    def test_backoff_doubles_per_failure(self):
        policy = BusPolicy(retries=3, backoff_s=0.5)
        assert policy.backoff_for(0) == 0.0
        assert policy.backoff_for(1) == 0.5
        assert policy.backoff_for(2) == 1.0
        assert policy.backoff_for(3) == 2.0

    def test_exhausted_retries_dead_letter(self, make_bus):
        bus, clock = make_bus(BusPolicy(retries=1, backoff_s=0.0))
        bus.put("t1", {"scheme": "X"})
        for verdict in (NACK_RETRY, NACK_DEAD):
            lease = bus.lease("w1", 10.0)
            assert bus.nack(
                lease.token, error="trace...", error_type="StallError",
                stall_dump="stalled at cycle 42", timed_out=False,
            ) == verdict
        (record,) = bus.dead_letters()
        assert record["dead_reason"] == REASON_RETRIES
        assert record["failures"] == 2
        assert record["error"] == "trace..."
        assert record["stall_dump"] == "stalled at cycle 42"
        assert bus.lease("w1", 10.0) is None
        assert bus.all_terminal()

    def test_ack_clears_prior_failure_details(self, make_bus):
        bus, _clock = make_bus(BusPolicy(retries=2, backoff_s=0.0))
        bus.put("t1", {})
        lease = bus.lease("w1", 10.0)
        bus.nack(lease.token, error="boom", error_type="RuntimeError",
                 stall_dump="dump", timed_out=True)
        retry = bus.lease("w1", 10.0)
        assert bus.ack(retry.token, {"ok": 1}, seed_used=99)
        record = bus.record("t1")
        assert record["state"] == DONE
        assert record["error"] is None and record["stall_dump"] is None
        assert record["timed_out"] is False
        assert record["failures"] == 1  # history kept for attempts count

    def test_requeue_resets_budget(self, make_bus):
        bus, _clock = make_bus(BusPolicy(retries=0, backoff_s=0.0))
        bus.put("t1", {})
        bus.put("t2", {})
        for _ in range(2):
            lease = bus.lease("w1", 10.0)
            bus.nack(lease.token, error="boom")
        assert len(bus.dead_letters()) == 2
        assert bus.requeue(["t1"]) == 1
        record = bus.record("t1")
        assert record["state"] == PENDING
        assert record["failures"] == 0 and record["deliveries"] == 0
        assert record["error"] is None and record["dead_reason"] is None
        # A fresh lease restarts the deterministic schedule at attempt 0.
        assert bus.lease("w1", 10.0).failures == 0
        assert bus.requeue() == 1  # no filter: remaining dead letters
        assert bus.dead_letters() == []


class TestSharedConnection:
    def test_memory_bus_is_the_sqlite_bus(self):
        bus = MemoryBus()
        assert isinstance(bus, SqliteBus) and bus.path == ":memory:"

    def test_heartbeat_threads_vs_worker_loops(self):
        """The held connection is shared by every thread of a process:
        worker loops leasing and acking while heartbeat threads renew
        must neither interleave transactions nor lose an update."""
        tasks, workers = 120, 6
        bus = MemoryBus(policy=BusPolicy(retries=0))
        for index in range(tasks):
            bus.put(f"t{index:03d}", {"i": index})
        acked, errors = [], []

        def heartbeats(token, stop):
            try:
                while not stop.is_set():
                    bus.heartbeat(token, 30.0)
            except Exception as exc:
                errors.append(exc)

        def worker(name):
            try:
                while True:
                    lease = bus.lease(name, 30.0)
                    if lease is None:
                        return
                    stop = threading.Event()
                    beat = threading.Thread(
                        target=heartbeats, args=(lease.token, stop)
                    )
                    beat.start()
                    try:
                        bus.counts()
                        bus.record(lease.task_id)
                        ok = bus.ack(lease.token, {"i": lease.payload["i"]})
                    finally:
                        stop.set()
                        beat.join(timeout=10.0)
                    assert ok and not beat.is_alive()
                    acked.append(lease.task_id)
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(f"w{i}",))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(acked) == [f"t{i:03d}" for i in range(tasks)]
        assert bus.counts() == {
            "pending": 0, "leased": 0, "done": tasks, "dead": 0,
        }
        for record in bus.records():
            assert record["deliveries"] == 1
            assert record["result"] == {"i": record["payload"]["i"]}


class TestSqliteSpecifics:
    def test_open_bus_persists_across_connections(self, tmp_path):
        path = tmp_path / "bus.sqlite"
        first = open_bus(path)
        first.put("t1", {"x": 1})
        first.set_meta("policy", {"retries": 3})
        # A second process opening the same file sees everything.
        second = SqliteBus(path)
        assert [r["task_id"] for r in second.records()] == ["t1"]
        assert second.get_meta("policy") == {"retries": 3}
        lease = second.lease("w1", 10.0)
        assert lease is not None
        assert first.record("t1")["state"] == LEASED

    def test_dead_state_constant_matches_schema(self, tmp_path):
        bus = SqliteBus(tmp_path / "bus.sqlite",
                        policy=BusPolicy(retries=0, backoff_s=0.0))
        bus.put("t1", {})
        lease = bus.lease("w1", 10.0)
        assert bus.nack(lease.token, error="x") == NACK_DEAD
        assert bus.counts()[DEAD] == 1
