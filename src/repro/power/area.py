"""Structural NoC area model (stands in for DSENT + RTL synthesis).

Router area is composed from flip-flop input buffers, a crossbar that
grows with the product of input and output ports, and per-port
allocation logic; NI injection buffers are costed per packet slot.  The
constants approximate a 28 nm standard-cell flow (a 5-port, 2-VC,
128-bit router lands near 0.09 mm^2).

Figure 11's shape emerges structurally: separate networks double the
router count; Interposer-CMesh adds 16 double-width, high-port-count
routers; DA2Mesh's narrow subnets are cheap per router; MultiPort and
EquiNox pay for extra CB-side ports and NI buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..noc.network import Network
from ..schemes.base import Fabric


@dataclass(frozen=True)
class AreaParams:
    """Component area constants (mm^2) at 28 nm."""

    buffer_mm2_per_byte: float = 1.2e-4   # flip-flop based FIFOs
    xbar_mm2_per_port2_byte: float = 1.1e-5
    alloc_mm2_per_port: float = 9.0e-4
    ni_core_mm2: float = 2.0e-3           # serialisation / core logic per NI


DEFAULT_PARAMS = AreaParams()


@dataclass
class AreaBreakdown:
    """Area of one network (mm^2), split by component."""

    name: str
    buffers_mm2: float
    xbar_mm2: float
    alloc_mm2: float
    ni_mm2: float

    @property
    def total_mm2(self) -> float:
        return self.buffers_mm2 + self.xbar_mm2 + self.alloc_mm2 + self.ni_mm2


@dataclass
class AreaReport:
    networks: List[AreaBreakdown]

    @property
    def total_mm2(self) -> float:
        return sum(n.total_mm2 for n in self.networks)


def network_area(net: Network) -> AreaBreakdown:
    """Structural area of one network, routers plus its NIs, under
    :data:`DEFAULT_PARAMS`."""
    params = DEFAULT_PARAMS
    buffers = xbar = alloc = 0.0
    for router in net.routers:
        in_ports = len(router.inputs)
        out_ports = len(router.outputs)
        buffer_bytes = in_ports * net.num_vcs * net.vc_capacity * net.flit_bytes
        buffers += buffer_bytes * params.buffer_mm2_per_byte
        xbar += (
            in_ports * out_ports * net.flit_bytes * params.xbar_mm2_per_port2_byte
        )
        alloc += (in_ports + out_ports) * params.alloc_mm2_per_port
    ni = 0.0
    for interface in net.nis:
        ni += params.ni_core_mm2
        for buf in interface.buffers:
            ni += (
                net.vc_capacity * net.flit_bytes * params.buffer_mm2_per_byte
            )
    return AreaBreakdown(
        name=net.name, buffers_mm2=buffers, xbar_mm2=xbar,
        alloc_mm2=alloc, ni_mm2=ni,
    )


def fabric_area(fabric: Fabric) -> AreaReport:
    """Total NoC area of a scheme instance (Figure 11)."""
    return AreaReport(
        networks=[network_area(net) for net, _r, _role in fabric.networks]
    )
