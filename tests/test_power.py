"""Tests for the energy and area models."""

import pytest

from repro.core.grid import Grid
from repro.harness.experiment import ExperimentConfig, build_fabric
from repro.noc import MultiPortInterface, Network, NetworkInterface
from repro.power import (
    EnergyParams,
    energy,
    fabric_area,
    fabric_energy,
    network_area,
    network_energy,
)


def router_area(ni=NetworkInterface, **kwargs):
    """Mean router area (mm^2) of a 4x4, 2-VC, 5-flit, 16 B mesh with
    one ``ni`` per node."""
    net = Network("t", Grid(4), 16, vc_capacity=5)
    for node in net.grid.nodes():
        ni(net, node, **kwargs)
    area = network_area(net)
    return (area.buffers_mm2 + area.xbar_mm2 + area.alloc_mm2) / 16


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(quota=10, mcts_iterations=20)


@pytest.fixture(scope="module")
def loaded_fabric(cfg):
    """A SeparateBase fabric that has actually moved traffic."""
    from repro.gpu import System, SystemConfig
    from repro.workloads import get

    fabric = build_fabric("SeparateBase", cfg)
    System(fabric, get("hotspot"), SystemConfig(quota=10, seed=0)).run()
    return fabric


class TestEnergy:
    def test_energy_positive_after_run(self, loaded_fabric):
        report = fabric_energy(loaded_fabric, 1000)
        assert report.total_pj > 0
        for net in report.networks:
            assert net.static_pj > 0

    def test_dynamic_scales_with_traffic(self, cfg, loaded_fabric):
        idle = build_fabric("SeparateBase", cfg)
        idle_report = fabric_energy(idle, 1000)
        loaded_report = fabric_energy(loaded_fabric, 1000)
        idle_dynamic = sum(n.dynamic_pj for n in idle_report.networks)
        loaded_dynamic = sum(n.dynamic_pj for n in loaded_report.networks)
        assert idle_dynamic == 0
        assert loaded_dynamic > 0

    def test_static_scales_with_cycles(self, loaded_fabric):
        short = fabric_energy(loaded_fabric, 1000)
        long = fabric_energy(loaded_fabric, 2000)
        assert sum(n.static_pj for n in long.networks) == pytest.approx(
            2 * sum(n.static_pj for n in short.networks)
        )

    def test_edp_definition(self, loaded_fabric):
        report = fabric_energy(loaded_fabric, 1000)
        assert report.edp == pytest.approx(
            report.total_nj * report.execution_ns
        )

    def test_separate_more_static_than_single(self, cfg):
        single = fabric_energy(build_fabric("SingleBase", cfg), 1000)
        separate = fabric_energy(build_fabric("SeparateBase", cfg), 1000)
        assert (
            sum(n.static_pj for n in separate.networks)
            > sum(n.static_pj for n in single.networks)
        )

    def test_width_scaling(self, loaded_fabric, monkeypatch):
        base = network_energy(loaded_fabric.reply_net, 1000)
        monkeypatch.setattr(energy, "DEFAULT_PARAMS",
                            EnergyParams(reference_flit_bytes=32))
        wide = network_energy(loaded_fabric.reply_net, 1000)
        assert wide.dynamic_pj == pytest.approx(base.dynamic_pj / 2)


class TestArea:
    def test_router_area_plausible(self):
        """A 5-port 2-VC 128-bit router is in the 0.05-0.2 mm^2 range."""
        assert 0.05 < router_area() < 0.2

    def test_area_grows_with_ports(self):
        small = router_area()
        big = router_area(MultiPortInterface, num_ports=4)
        assert big > small

    def test_single_less_than_separate(self, cfg):
        single = fabric_area(build_fabric("SingleBase", cfg)).total_mm2
        separate = fabric_area(build_fabric("SeparateBase", cfg)).total_mm2
        assert single < separate

    def test_equinox_overhead_near_paper(self, cfg):
        """Paper: EquiNox consumes ~4.6% more area than SeparateBase."""
        separate = fabric_area(build_fabric("SeparateBase", cfg)).total_mm2
        equinox = fabric_area(build_fabric("EquiNox", cfg)).total_mm2
        overhead = equinox / separate - 1
        assert 0.01 < overhead < 0.12

    def test_figure11_ordering(self, cfg):
        """Structural orderings visible in Figure 11."""
        areas = {
            name: fabric_area(build_fabric(name, cfg)).total_mm2
            for name in ("SingleBase", "VC-Mono", "Interposer-CMesh",
                         "SeparateBase", "DA2Mesh", "MultiPort", "EquiNox")
        }
        # Single-network schemes are cheapest...
        assert areas["SingleBase"] < areas["SeparateBase"]
        assert areas["VC-Mono"] == pytest.approx(areas["SingleBase"])
        # ...except Interposer-CMesh, which pays for the overlay routers.
        assert areas["Interposer-CMesh"] > areas["SingleBase"]
        # MultiPort and EquiNox pay extra ports over SeparateBase.
        assert areas["MultiPort"] > areas["SeparateBase"]
        assert areas["EquiNox"] > areas["SeparateBase"]

    def test_network_area_breakdown_sums(self, cfg):
        fabric = build_fabric("SeparateBase", cfg)
        breakdown = network_area(fabric.reply_net)
        assert breakdown.total_mm2 == pytest.approx(
            breakdown.buffers_mm2 + breakdown.xbar_mm2
            + breakdown.alloc_mm2 + breakdown.ni_mm2
        )
