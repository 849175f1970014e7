"""Tests for the latency-throughput sweep utility."""

import pytest

from repro.core.grid import Grid
from repro.core.placement import nqueen_best
from repro.workloads import saturation_throughput, sweep_few_to_many
from repro.workloads.synthetic import SweepPoint


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self):
        grid = Grid(8)
        cbs = nqueen_best(grid, 8).nodes
        return sweep_few_to_many(
            grid, cbs, rates=[0.05, 0.15, 0.3], cycles=600
        )

    def test_point_per_rate(self, points):
        assert [p.offered for p in points] == [0.05, 0.15, 0.3]

    def test_throughput_tracks_offered_below_saturation(self, points):
        low = points[0]
        assert low.throughput == pytest.approx(low.offered, rel=0.25)

    def test_saturation_caps_throughput(self, points):
        """A 5-flit packet on a 1 flit/cycle port caps near 0.2."""
        high = points[-1]
        assert high.throughput < 0.25

    def test_latency_grows_with_load(self, points):
        latencies = [p.mean_latency for p in points]
        assert latencies[0] < latencies[-1]

    def test_saturation_helper(self, points):
        assert saturation_throughput(points) == max(
            p.throughput for p in points
        )
        assert saturation_throughput([]) == 0.0

    def test_custom_factory(self):
        from repro.noc import Network, NetworkInterface

        grid = Grid(8)
        cbs = nqueen_best(grid, 8).nodes

        def factory(g):
            net = Network("f", g, flit_bytes=16, vc_classes=[(0, 1)])
            return net, {cb: NetworkInterface(net, cb) for cb in cbs}

        points = sweep_few_to_many(
            grid, cbs, rates=[0.1], cycles=300, network_factory=factory
        )
        assert isinstance(points[0], SweepPoint)
        assert points[0].throughput > 0
