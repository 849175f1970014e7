"""Unit tests for network statistics."""

import pytest

from repro.noc.stats import LatencyAccumulator, NetworkStats
from repro.noc.types import Packet, PacketType


def packet(ptype=PacketType.READ_REPLY, size=5, created=0, delivered=20):
    p = Packet(1, ptype, 0, 5, size, created)
    p.delivered = delivered
    return p


class TestLatencyAccumulator:
    def test_add_splits_queuing(self):
        acc = LatencyAccumulator()
        acc.add(total=30, non_queuing=12)
        assert acc.count == 1
        assert acc.queuing == 18
        assert acc.non_queuing == 12

    def test_non_queuing_clamped_to_total(self):
        acc = LatencyAccumulator()
        acc.add(total=8, non_queuing=12)  # faster than the model's bound
        assert acc.non_queuing == 8
        assert acc.queuing == 0

    def test_clamped_samples_are_counted(self):
        """Regression: clamping was silent, hiding zero-load-model bugs."""
        acc = LatencyAccumulator()
        acc.add(total=8, non_queuing=12)   # clamped
        acc.add(total=30, non_queuing=12)  # normal
        acc.add(total=12, non_queuing=12)  # boundary: not clamped
        assert acc.clamped == 1
        assert acc.count == 3


class TestNetworkStats:
    def test_record_delivery_by_type(self):
        stats = NetworkStats(16, 16)
        stats.record_delivery(packet(PacketType.READ_REPLY), 10)
        stats.record_delivery(packet(PacketType.READ_REQUEST, size=1), 10)
        assert stats.latency[PacketType.READ_REPLY].count == 1
        assert stats.latency[PacketType.READ_REQUEST].count == 1
        assert stats.packets_delivered == 2
        assert stats.bits_delivered == (5 + 1) * 16 * 8

    def test_mean_latency_filtered(self):
        stats = NetworkStats(16, 16)
        stats.record_delivery(packet(PacketType.READ_REPLY, delivered=30), 10)
        stats.record_delivery(
            packet(PacketType.READ_REQUEST, delivered=10), 5
        )
        assert stats.mean_latency() == pytest.approx(20.0)
        requests = stats.latency[PacketType.READ_REQUEST]
        assert requests.total / requests.count == 10.0

    def test_heatmap_masks_untouched_routers(self):
        stats = NetworkStats(4, 16)
        stats.residence_cycles[2] += 7
        stats.residence_count[2] += 1
        heat = stats.heatmap()
        assert heat[2] == 7.0
        assert heat[0] == 0.0

    def test_heatmap_variance(self):
        stats = NetworkStats(4, 16)
        stats.residence_cycles += 3
        stats.residence_count += 1
        assert stats.heatmap_variance() == 0.0

    def test_snapshot_carries_clamped(self):
        a = NetworkStats(16, 2)
        a.latency[PacketType.READ_REPLY].add(total=5, non_queuing=9)
        snap = a.snapshot()
        assert snap["latency"][PacketType.READ_REPLY.name][4] == 1
        assert "packets_created" in snap
