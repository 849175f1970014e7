"""Topology builder for the interposer concentrated mesh.

The CMesh used by the Interposer-CMesh baseline [Jerger et al., MICRO
2014] concentrates 2x2 tile blocks onto one CMesh router; the CMesh
routers form a half-size mesh whose links are routed in the interposer.
Each CMesh router has four local injection ports and four dedicated
ejection ports (one per attached tile), which is why those routers have
roughly twice the ports of a basic router (paper section 6.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.grid import Grid
from .network import Network, network_class
from .types import Packet

CONCENTRATION = 2
"""Base tiles per CMesh router side: 2x2 blocks share one router."""


@dataclass(frozen=True)
class CmeshEnvelope:
    """Token wrapper for packets travelling the concentrated mesh.

    ``real_src``/``real_dst`` are *base-grid* tile ids; ``inner`` is the
    logical payload (a memory transaction or test marker).
    """

    real_src: int
    real_dst: int
    inner: Optional[object] = None


class CmeshMap:
    """Coordinate mapping between the base grid and the CMesh grid."""

    def __init__(self, base: Grid) -> None:
        c = CONCENTRATION
        if base.width % c or base.height % c:
            raise ValueError("grid not divisible by concentration factor")
        self.base = base
        self.cgrid = Grid(base.width // c, base.height // c)

    def cmesh_node(self, tile: int) -> int:
        x, y = self.base.coord(tile)
        c = CONCENTRATION
        return self.cgrid.node(x // c, y // c)

    def local_index(self, tile: int) -> int:
        x, y = self.base.coord(tile)
        c = CONCENTRATION
        return (y % c) * c + (x % c)


def build_cmesh(
    base: Grid,
    flit_bytes: int,
    engine: Optional[str] = None,
    **kwargs,
) -> Tuple[Network, CmeshMap, Dict[Tuple[int, int], int]]:
    """Build the interposer CMesh overlay network.

    Returns the network (over the reduced grid, with per-tile dedicated
    ejection ports and ``eject_filter`` installed), the coordinate map,
    and the ``(cmesh_node, local_index) -> eject_port`` table.  The
    caller wires one NI per base tile into the corresponding CMesh
    router.
    """
    cmap = CmeshMap(base)
    kwargs.setdefault("interposer_mesh_links", True)
    cls = network_class(engine)
    net = cls(
        "cmesh",
        cmap.cgrid,
        flit_bytes,
        **kwargs,
    )
    ports_per_tile = CONCENTRATION * CONCENTRATION
    eject_port_of: Dict[Tuple[int, int], int] = {}
    for cnode in cmap.cgrid.nodes():
        # The default eject port serves local index 0; add the rest.
        eject_port_of[(cnode, 0)] = net.routers[cnode].eject_ports[0]
        for local in range(1, ports_per_tile):
            eject_port_of[(cnode, local)] = net.add_eject_port(cnode)

    def make_filter(cnode: int):
        def eject_filter(packet: Packet):
            envelope = packet.token
            local = cmap.local_index(envelope.real_dst)
            return (eject_port_of[(cnode, local)],)

        return eject_filter

    for cnode in cmap.cgrid.nodes():
        net.routers[cnode].eject_filter = make_filter(cnode)
    return net, cmap, eject_port_of
