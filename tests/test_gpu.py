"""Unit tests for the PE, cache bank, and full-system models."""

import pytest

from repro.gpu import ProcessingElement, System, SystemConfig, Transaction
from repro.harness.experiment import ExperimentConfig, build_fabric, run_experiment
from repro.workloads import get
from repro.workloads.profiles import WorkloadProfile


def profile(**kwargs):
    defaults = dict(
        name="unit",
        suite="test",
        intensity=1.0,
        read_fraction=0.8,
        l2_hit_rate=0.5,
        row_hit_rate=0.5,
        burstiness=0.0,
        dependency=0.0,
    )
    defaults.update(kwargs)
    return WorkloadProfile(**defaults)


class TestPE:
    def test_issues_up_to_quota(self):
        pe = ProcessingElement(0, profile(), 8, quota=5, seed=0, pe_index=0,
                               mshrs=100)
        issued = []
        for cycle in range(1, 200):
            txn = pe.try_issue(cycle, len(issued) + 1, list(range(8)))
            if txn:
                issued.append(txn)
        assert len(issued) == 5
        assert pe.remaining == 0

    def test_mshr_limit_blocks(self):
        pe = ProcessingElement(0, profile(), 8, quota=100, seed=0, pe_index=0,
                               mshrs=4)
        issued = []
        for cycle in range(1, 50):
            txn = pe.try_issue(cycle, len(issued) + 1, list(range(8)))
            if txn:
                issued.append(txn)
        assert len(issued) == 4
        assert pe.stall_cycles > 0
        pe.receive_reply(issued[0], 60)
        txn = pe.try_issue(61, 5, list(range(8)))
        assert txn is not None

    def test_done_requires_all_replies(self):
        pe = ProcessingElement(0, profile(), 8, quota=1, seed=0, pe_index=0)
        txn = None
        for cycle in range(1, 20):
            txn = txn or pe.try_issue(cycle, 1, list(range(8)))
        assert txn is not None
        assert not pe.done
        pe.receive_reply(txn, 30)
        assert pe.done
        assert pe.finished_cycle == 30

    def test_wrong_pe_reply_rejected(self):
        pe = ProcessingElement(0, profile(), 8, quota=1, seed=0, pe_index=0)
        txn = Transaction(1, pe=3, cb=0, is_read=True, row_hit=True, issued=0)
        with pytest.raises(ValueError):
            pe.receive_reply(txn, 5)

    def test_dependency_serialises(self):
        dep = ProcessingElement(
            0, profile(dependency=1.0), 8, quota=10, seed=0, pe_index=0
        )
        issued = []
        for cycle in range(1, 100):
            txn = dep.try_issue(cycle, len(issued) + 1, list(range(8)))
            if txn:
                issued.append(txn)
        # With full dependency and no replies, only one issues.
        assert len(issued) == 1
        dep.receive_reply(issued[0], 120)
        for cycle in range(121, 200):
            txn = dep.try_issue(cycle, 2, list(range(8)))
            if txn:
                issued.append(txn)
                break
        assert len(issued) == 2

    def test_intensity_throttles_issue_rate(self):
        lo = ProcessingElement(0, profile(intensity=0.05), 8, quota=10**6,
                               seed=0, pe_index=0, mshrs=10**6)
        hi = ProcessingElement(0, profile(intensity=0.5), 8, quota=10**6,
                               seed=0, pe_index=1, mshrs=10**6)
        lo_count = sum(
            1 for c in range(2000) if lo.try_issue(c, c, list(range(8)))
        )
        hi_count = sum(
            1 for c in range(2000) if hi.try_issue(c, c, list(range(8)))
        )
        assert lo_count < hi_count
        assert lo_count == pytest.approx(2000 * 0.05, rel=0.5)


class TestSystem:
    def _run(self, scheme="SeparateBase", bench="hotspot", quota=20, **kw):
        cfg = ExperimentConfig(quota=quota, mcts_iterations=20)
        fabric = build_fabric(scheme, cfg)
        system = System(fabric, get(bench),
                        SystemConfig(quota=quota, seed=1, **kw))
        return system.run()

    def test_all_instructions_complete(self):
        result = self._run()
        num_pes = 56
        assert result.instructions == 20 * num_pes
        completed = [t for t in result.transactions if t.completed is not None]
        assert len(completed) == result.instructions

    def test_transactions_have_monotone_timestamps(self):
        result = self._run()
        for txn in result.transactions:
            assert txn.accepted is None or txn.accepted >= txn.issued
            if txn.reply_sent is not None:
                assert txn.reply_sent >= txn.accepted
            if txn.completed is not None and txn.reply_sent is not None:
                assert txn.completed >= txn.reply_sent

    def test_deterministic(self):
        a = self._run(quota=10)
        b = self._run(quota=10)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions

    def test_seed_changes_schedule(self):
        cfg = ExperimentConfig(quota=10, mcts_iterations=20)
        fabric_a = build_fabric("SeparateBase", cfg)
        ra = System(fabric_a, get("hotspot"),
                    SystemConfig(quota=10, seed=1)).run()
        fabric_b = build_fabric("SeparateBase", cfg)
        rb = System(fabric_b, get("hotspot"),
                    SystemConfig(quota=10, seed=2)).run()
        assert ra.cycles != rb.cycles

    def test_ipc_positive(self):
        result = self._run(quota=10)
        assert result.ipc > 0

    def test_backpressure_shows_in_request_queuing(self):
        """The parking-lot effect: request queuing >> reply queuing on a
        saturating workload (paper section 6.4)."""
        cfg = ExperimentConfig(quota=60, mcts_iterations=20)
        latency = run_experiment("SeparateBase", "kmeans", cfg).latency
        assert latency.request_queuing > latency.reply_queuing

    def test_cb_capacity_limits_occupancy(self):
        cfg = ExperimentConfig(quota=20, mcts_iterations=20)
        fabric = build_fabric("SeparateBase", cfg)
        system = System(fabric, get("kmeans"),
                        SystemConfig(quota=20, seed=0, cb_capacity=4))
        system.run()
        for bank in system.banks.values():
            assert bank.occupancy <= 4
            assert bank.requests_accepted > 0

    @pytest.mark.parametrize("scheme,cycles,stalls,fingerprint", [
        ("SingleBase", 1726, 42668,
         "7b2da7832439322310682cb81a8293498a7fe7faf333b02a017b7601bf08f70b"),
        ("Interposer-CMesh", 1789, 41371,
         "187d7308cbb73b9331658ea929980a6d8308c592c2575b3508597dea835a9605"),
    ])
    def test_mshr_bound_run_is_pinned(self, scheme, cycles, stalls,
                                      fingerprint):
        """Four MSHRs for 40 instructions: PEs spend much of the run in
        ``try_issue``'s MSHR-full branch, which no golden cell reaches.
        A stalled PE must stay in the issue walk and keep counting its
        stall cycles; the CMesh cell also covers the overlay's
        node-to-tile reply gating."""
        cfg = ExperimentConfig(seed=3, quota=40, mshrs=4, mcts_iterations=20)
        result = run_experiment(scheme, "hotspot", cfg)
        assert result.cycles == cycles
        assert result.pe_stall_cycles == stalls
        assert result.stats_fingerprint == fingerprint

    def test_l2_hit_ratio_tracks_profile(self):
        result = self._run(bench="hotspot", quota=40)
        hits = sum(1 for t in result.transactions if t.l2_hit)
        ratio = hits / len(result.transactions)
        assert ratio == pytest.approx(get("hotspot").l2_hit_rate, abs=0.08)
