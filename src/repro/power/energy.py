"""Event-based NoC energy model (the DSENT-equivalent substrate).

Energy is accumulated from the event counters every network records
(buffer writes/reads, crossbar traversals, allocations, link hops) with
per-event energies representative of a 28 nm process at ~1 V, scaled by
flit width.  Static (leakage) power scales with each router's storage
and port count and integrates over the run's wall-clock time.

Interposer links are modelled per Jerger et al. / Saban: electrically
comparable to on-chip wires of the same length, with a slightly lower
capacitance per mm (no repeater loading for the sub-3 mm lengths
EquiNox uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..noc.network import Network
from ..schemes.base import BASE_FREQUENCY_GHZ, Fabric


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (pJ) at the reference flit width, 28 nm."""

    reference_flit_bytes: int = 16
    buffer_write_pj: float = 2.5
    buffer_read_pj: float = 1.8
    xbar_pj: float = 3.2
    alloc_pj: float = 0.4
    link_onchip_pj: float = 8.5          # one tile pitch (~1.5 mm)
    link_interposer_pj_per_tile: float = 6.0
    router_leak_mw_per_port: float = 0.14  # per (port x VC-buffer) pair
    ni_buffer_leak_mw: float = 0.10
    frequency_ghz: float = BASE_FREQUENCY_GHZ


DEFAULT_PARAMS = EnergyParams()


@dataclass
class EnergyBreakdown:
    """Energy of one network, split by component (picojoules)."""

    name: str
    buffer_pj: float
    xbar_pj: float
    alloc_pj: float
    link_pj: float
    static_pj: float

    @property
    def dynamic_pj(self) -> float:
        return self.buffer_pj + self.xbar_pj + self.alloc_pj + self.link_pj

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.static_pj


@dataclass
class EnergyReport:
    """Whole-fabric energy for one run."""

    networks: List[EnergyBreakdown]
    base_cycles: int
    frequency_ghz: float

    @property
    def total_pj(self) -> float:
        return sum(n.total_pj for n in self.networks)

    @property
    def total_nj(self) -> float:
        return self.total_pj / 1e3

    @property
    def execution_ns(self) -> float:
        return self.base_cycles / self.frequency_ghz

    @property
    def edp(self) -> float:
        """Energy-delay product in nJ * ns."""
        return self.total_nj * self.execution_ns


def _width_scale(flit_bytes: int, params: EnergyParams) -> float:
    return flit_bytes / params.reference_flit_bytes


def router_leakage_mw(net: Network, params: EnergyParams) -> float:
    """Total router leakage of a network, scaled by size and width.

    High-radix routers leak superlinearly in port count: the crossbar's
    area (and hence its leakage) grows with the square of the radix, so
    each port of a 16-port CMesh router costs more than each port of a
    5-port mesh router.
    """
    scale = _width_scale(net.flit_bytes, params)
    total = 0.0
    for router in net.routers:
        ports = len(router.inputs) + len(router.outputs)
        radix_factor = ports / REFERENCE_ROUTER_PORTS
        total += ports * net.num_vcs * radix_factor
    return params.router_leak_mw_per_port * total * scale


def ni_leakage_mw(net: Network, params: EnergyParams) -> float:
    scale = _width_scale(net.flit_bytes, params)
    buffers = sum(len(ni.buffers) for ni in net.nis)
    return params.ni_buffer_leak_mw * buffers * scale


REFERENCE_ROUTER_PORTS = 10  # 5-in/5-out basic mesh router


def _mean_radix_factor(net: Network) -> float:
    """Crossbar energy grows with port count (wire length across the
    crossbar scales with radix); normalised to a basic 5-port router."""
    total_ports = sum(
        len(r.inputs) + len(r.outputs) for r in net.routers
    )
    mean_ports = total_ports / len(net.routers)
    return mean_ports / REFERENCE_ROUTER_PORTS


def network_energy(net: Network, base_cycles: int) -> EnergyBreakdown:
    """Energy of one network over a run of ``base_cycles`` base cycles,
    under :data:`DEFAULT_PARAMS`."""
    params = DEFAULT_PARAMS
    stats = net.stats
    scale = _width_scale(net.flit_bytes, params)
    buffer_pj = (
        stats.buffer_writes * params.buffer_write_pj
        + stats.buffer_reads * params.buffer_read_pj
    ) * scale
    xbar_pj = (
        stats.xbar_traversals * params.xbar_pj * scale
        * _mean_radix_factor(net)
    )
    alloc_pj = stats.vc_allocs * params.alloc_pj * scale
    link_pj = (
        stats.link_hops_onchip * params.link_onchip_pj
        + stats.interposer_hop_length * params.link_interposer_pj_per_tile
    ) * scale
    leak_mw = router_leakage_mw(net, params) + ni_leakage_mw(net, params)
    seconds = base_cycles / (params.frequency_ghz * 1e9)
    static_pj = leak_mw * 1e-3 * seconds * 1e12
    return EnergyBreakdown(
        name=net.name,
        buffer_pj=buffer_pj,
        xbar_pj=xbar_pj,
        alloc_pj=alloc_pj,
        link_pj=link_pj,
        static_pj=static_pj,
    )


def fabric_energy(fabric: Fabric, base_cycles: int) -> EnergyReport:
    """Energy of every network in a fabric over one run."""
    breakdowns = [
        network_energy(net, base_cycles)
        for net, _ratio, _role in fabric.networks
    ]
    return EnergyReport(
        networks=breakdowns,
        base_cycles=base_cycles,
        frequency_ghz=DEFAULT_PARAMS.frequency_ghz,
    )
