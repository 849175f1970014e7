"""Scheme configuration and the fabric that realises it.

A :class:`SchemeConfig` captures everything that distinguishes the seven
compared designs (paper section 5): single vs separate physical
networks, VC monopolisation, the interposer CMesh overlay, the DA2Mesh
narrow reply subnets, MultiPort CB routers, and EquiNox's EIRs.

A :class:`Fabric` instantiates the networks and NIs for one
configuration and provides the transaction-level send/receive interface
consumed by the GPU system model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.equinox import EquiNoxDesign
from ..core.grid import Grid
from ..noc.interface import (
    EquiNoxInterface,
    MultiPortInterface,
    NetworkInterface,
)
from ..noc.loops import LOOP_SETS, LoopInterface
from ..noc.network import Network, network_class, resolve_engine, resolve_scheduler
from ..noc.topology import CmeshEnvelope, CmeshMap, build_cmesh
from ..noc.types import Packet, PacketType, packet_flits

BASE_FREQUENCY_GHZ = 1.126
"""PE / NoC base clock (Table 1)."""

# Every scheme shares these; the scheme configs differ in the rest.
FLIT_BYTES = 16
"""Base-mesh flit width: 128-bit links (Table 1)."""
NUM_VCS = 2
"""VCs per port: one per packet class (one pair per dateline on loops)."""
ROUTING = "oddeven"
"""Base-mesh routing algorithm: minimal adaptive odd-even."""
DA2MESH_SUBNETS = 8
"""DA2Mesh's narrow reply subnets, each 1/8 of the base flit width."""
DA2MESH_CLOCK_RATIO = 2.5
"""DA2Mesh subnet clock over the base clock."""
CMESH_FLIT_BYTES = 32
"""Interposer-CMesh overlay flit width: 256-bit links."""
CMESH_THRESHOLD = 2
"""Mesh hops at or beyond which a packet may take the CMesh overlay."""


@dataclass(frozen=True)
class SchemeConfig:
    """Static description of one compared scheme."""

    name: str
    network_type: str  # "single" | "separate"
    placement_name: str = "diamond"
    monopolize: bool = False
    monopolize_injection: bool = False
    cmesh: bool = False
    da2mesh: bool = False
    multiport: int = 1
    equinox: bool = False
    # Physical topology: "mesh" (all paper schemes), or the loop
    # baselines "ring" (Wu's ring-router NoC) and "routerless" (Lin's
    # loop-covered routerless NoC).
    topology: str = "mesh"

    @property
    def supports_faults(self) -> bool:
        """Whether fault plans may target this scheme.

        Loop topologies have no adaptive detour to route around a dead
        link — a severed loop strands every lane through it — so fault
        injection is a declared non-capability there, enforced where
        plans are armed (``run_with_fabric``) and generated
        (``repro.verify``).
        """
        return self.topology == "mesh"

    def __post_init__(self) -> None:
        if self.network_type not in ("single", "separate"):
            raise ValueError("network_type must be 'single' or 'separate'")
        if self.equinox and self.network_type != "separate":
            raise ValueError("EquiNox is a separate-network scheme")
        if self.da2mesh and self.network_type != "separate":
            raise ValueError("DA2Mesh splits the reply network of a "
                             "separate-network design")
        if self.topology not in ("mesh", "ring", "routerless"):
            raise ValueError(
                "topology must be 'mesh', 'ring' or 'routerless'"
            )
        if self.topology != "mesh":
            if self.network_type != "separate":
                raise ValueError(
                    "loop topologies use separate request/reply networks"
                )
            if (
                self.cmesh
                or self.da2mesh
                or self.multiport > 1
                or self.equinox
                or self.monopolize
                or self.monopolize_injection
            ):
                raise ValueError(
                    "loop topologies cannot combine with mesh overlays "
                    "or NI variants"
                )


class Fabric:
    """All networks and NIs of one scheme instance on one grid."""

    def __init__(
        self,
        config: SchemeConfig,
        grid: Grid,
        placement: Sequence[int],
        equinox_design: Optional[EquiNoxDesign] = None,
        scheduler: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.config = config
        self.grid = grid
        # Tick discipline shared by every network of this fabric
        # ("active" skips workless components, "dense" is the oracle).
        self.scheduler = resolve_scheduler(scheduler)
        # Tick engine shared by every network of this fabric ("object"
        # is the golden reference; "vector" the bit-identical SoA
        # engine).
        self.engine = resolve_engine(engine)
        NetCls = network_class(self.engine)
        self.placement = tuple(placement)
        self.equinox_design = equinox_design
        self.cb_set = frozenset(placement)
        self.pes = tuple(n for n in grid.nodes() if n not in self.cb_set)
        self._pid = 0
        # networks: (network, clock_ratio, role) with role in
        # {"request", "reply", "both", "cmesh"}.
        self.networks: List[Tuple[Network, float, str]] = []
        self._ratio_acc: List[float] = []
        # Networks a reply can arrive on: reply, both, cmesh.
        self._reply_side: List[Network] = []

        vc_cap = packet_flits(PacketType.READ_REPLY, FLIT_BYTES)

        def mesh(name: str, role: str, vc_classes,
                 flit_bytes: int = FLIT_BYTES,
                 vc_capacity: int = vc_cap, clock_ratio: float = 1.0,
                 **kw) -> Network:
            """Build one network of this fabric and register it."""
            net = NetCls(
                name, grid, flit_bytes, num_vcs=NUM_VCS,
                vc_capacity=vc_capacity, routing_algorithm=ROUTING,
                vc_classes=vc_classes, clock_ratio=clock_ratio,
                scheduler=self.scheduler, **kw,
            )
            self._add_network(net, clock_ratio, role)
            return net

        all_vcs = [tuple(range(NUM_VCS))]
        # --- Loop topologies (ring / routerless) -------------------------
        # Two separate loop-wired networks.  The VC pair implements the
        # loop dateline, not a traffic-class partition, so packets are
        # all class 0 and vc_classes pins injection to VC 0 (the
        # dateline's precondition); each network's LoopTable gives every
        # later hop its dateline VC.
        if config.topology != "mesh":
            make_loops = LOOP_SETS[config.topology]
            self.request_net = mesh(
                "request", "request", [(0,)], loops=make_loops(grid)
            )
            self.reply_net = mesh(
                "reply", "reply", [(0,)], loops=make_loops(grid)
            )
        elif config.network_type == "single":
            self.request_net = self.reply_net = mesh(
                "single", "both", [(0,), (1,)],
                monopolize=config.monopolize,
                monopolize_injection=config.monopolize_injection,
            )
        else:
            self.request_net = mesh("request", "request", all_vcs)
            self.reply_net = (
                None if config.da2mesh else mesh("reply", "reply", all_vcs)
            )

        # --- DA2Mesh reply subnets --------------------------------------
        self.reply_subnets: List[Network] = []
        if config.da2mesh:
            narrow_bytes = max(1, FLIT_BYTES // DA2MESH_SUBNETS)
            # Buffers keep the same *bit* budget as the wide network, so
            # a narrow VC holds few narrow flits and a data packet spans
            # many routers — the serialisation cost the paper describes.
            narrow_cap = max(
                2, vc_cap * narrow_bytes // FLIT_BYTES + 1
            )
            narrow_eject = 2 * packet_flits(PacketType.READ_REPLY, narrow_bytes)
            for i in range(DA2MESH_SUBNETS):
                self.reply_subnets.append(mesh(
                    f"reply-sub{i}", "reply", all_vcs,
                    flit_bytes=narrow_bytes, vc_capacity=narrow_cap,
                    clock_ratio=DA2MESH_CLOCK_RATIO,
                    eject_capacity=narrow_eject,
                ))
        self._da2_rr: Dict[int, int] = {cb: 0 for cb in placement}
        self._da2_pop_rr: Dict[int, int] = {}

        # --- Interposer CMesh overlay ------------------------------------
        self.cmesh_net: Optional[Network] = None
        self.cmap: Optional[CmeshMap] = None
        if config.cmesh:
            data_flits_cm = packet_flits(
                PacketType.READ_REPLY, CMESH_FLIT_BYTES
            )
            self.cmesh_net, self.cmap, self._cmesh_eject = build_cmesh(
                grid,
                CMESH_FLIT_BYTES,
                num_vcs=NUM_VCS,
                vc_capacity=data_flits_cm,
                routing_algorithm=ROUTING,
                vc_classes=[(0,), (1,)],
                scheduler=self.scheduler,
                engine=self.engine,
            )
            self._add_network(
                self.cmesh_net, 1.0, "cmesh"
            )
            # A CB tile's mesh NI and CMesh NI share one serialisation
            # core at the *base* width: the ported CPU overlay adds
            # injection paths, it does not widen the GPU's L2 datapath
            # (unlike MultiPort/EquiNox, which re-engineer the CB NI).
            # PE tiles keep independent cores — their small requests
            # never stress the NI datapath in any scheme.
            from ..noc.interface import SerializationCore

            self._cb_cores: Dict[int, SerializationCore] = {
                cb: SerializationCore() for cb in placement
            }
            self.cmesh_nis: Dict[int, NetworkInterface] = {}
            for tile in grid.nodes():
                cnode = self.cmap.cmesh_node(tile)
                if tile in self._cb_cores:
                    self.cmesh_nis[tile] = NetworkInterface(
                        self.cmesh_net, cnode, core=self._cb_cores[tile],
                        core_bytes=FLIT_BYTES,
                    )
                else:
                    self.cmesh_nis[tile] = NetworkInterface(
                        self.cmesh_net, cnode
                    )

        # --- NIs ----------------------------------------------------------
        def _cb_core(cb: int):
            if self.cmesh_net is None:
                return None
            return self._cb_cores[cb]

        def _cb_core_bytes() -> int:
            from ..noc.interface import BASE_CORE_BYTES

            if self.cmesh_net is not None:
                return FLIT_BYTES
            return BASE_CORE_BYTES

        if config.topology != "mesh":
            # Loop NIs stamp the selected lane (wire selection) at
            # injection; everything downstream is lane-following.
            self.request_nis: Dict[int, NetworkInterface] = {
                pe: LoopInterface(self.request_net, pe) for pe in self.pes
            }
            self.reply_nis: Dict[int, object] = {
                cb: LoopInterface(self.reply_net, cb) for cb in placement
            }
            self._pop_toggle = {}
            return
        self.request_nis = {
            pe: NetworkInterface(self.request_net, pe) for pe in self.pes
        }
        self.reply_nis = {}
        for cb in placement:
            if config.da2mesh:
                # One NI per subnet, but a single serialisation core per
                # CB: the MC-side NI logic is shared hardware.
                from ..noc.interface import SerializationCore

                shared_core = SerializationCore()
                self.reply_nis[cb] = [
                    NetworkInterface(
                        subnet, cb, core=shared_core,
                        core_bytes=FLIT_BYTES,
                    )
                    for subnet in self.reply_subnets
                ]
            elif config.equinox:
                assert equinox_design is not None
                self.reply_nis[cb] = EquiNoxInterface(
                    self.reply_net, cb, equinox_design.eir_design
                )
            elif config.multiport > 1:
                self.reply_nis[cb] = MultiPortInterface(
                    self.reply_net, cb, num_ports=config.multiport
                )
            else:
                self.reply_nis[cb] = NetworkInterface(
                    self.reply_net, cb, core=_cb_core(cb),
                    core_bytes=_cb_core_bytes(),
                )
            if config.multiport > 1:
                # MultiPort also widens request-network ejection at CBs.
                for _ in range(config.multiport - 1):
                    self.request_net.add_eject_port(cb)
        self._pop_toggle: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _add_network(self, net: Network, ratio: float, role: str) -> None:
        self.networks.append((net, ratio, role))
        self._ratio_acc.append(0.0)
        if role != "request":
            self._reply_side.append(net)

    def _next_pid(self) -> int:
        self._pid += 1
        return self._pid

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _use_cmesh(self, src: int, dst: int,
                   mesh_ni: Optional[NetworkInterface] = None) -> bool:
        """Whether a packet should take the interposer overlay.

        Distance-eligible traffic (>= threshold mesh hops) prefers the
        CMesh, but falls back to the base mesh when the overlay-side NI
        is more backed up — the load-balanced injection policy of
        interposer-overlay designs.
        """
        if (
            self.cmesh_net is None
            or self.grid.hops(src, dst) < CMESH_THRESHOLD
        ):
            return False
        if mesh_ni is None:
            return True
        # Headroom rule: take the overlay while its NI has at most one
        # packet waiting; once the overlay backs up, spill to the mesh.
        return self.cmesh_nis[src].pressure() <= 2

    def send_request(self, pe: int, cb: int, ptype: PacketType,
                     token: object) -> Packet:
        """Inject a request packet from a PE toward a CB."""
        if self._use_cmesh(pe, cb, self.request_nis[pe]):
            return self._send_cmesh(pe, cb, ptype, token, vc_class=0)
        size = packet_flits(ptype, self.request_net.flit_bytes)
        vc_class = 0
        packet = Packet(self._next_pid(), ptype, pe, cb, size, 0,
                        vc_class=vc_class, token=token)
        self.request_nis[pe].enqueue(packet)
        return packet

    def send_reply(self, cb: int, pe: int, ptype: PacketType,
                   token: object) -> Packet:
        """Inject a reply packet from a CB toward a PE."""
        if self.cmesh_net is not None and self._use_cmesh(
            cb, pe, self.reply_nis[cb]
        ):
            return self._send_cmesh(cb, pe, ptype, token, vc_class=1)
        if self.config.da2mesh:
            idx = self._da2_rr[cb]
            self._da2_rr[cb] = (idx + 1) % len(self.reply_subnets)
            subnet = self.reply_subnets[idx]
            ni = self.reply_nis[cb][idx]
            size = packet_flits(ptype, subnet.flit_bytes)
            packet = Packet(self._next_pid(), ptype, cb, pe, size, 0,
                            vc_class=0, token=token)
            ni.enqueue(packet)
            return packet
        vc_class = 1 if self.config.network_type == "single" else 0
        size = packet_flits(ptype, self.reply_net.flit_bytes)
        packet = Packet(self._next_pid(), ptype, cb, pe, size, 0,
                        vc_class=vc_class, token=token)
        self.reply_nis[cb].enqueue(packet)
        return packet

    def _send_cmesh(self, src: int, dst: int, ptype: PacketType,
                    token: object, vc_class: int) -> Packet:
        assert self.cmesh_net is not None and self.cmap is not None
        envelope = CmeshEnvelope(real_src=src, real_dst=dst, inner=token)
        csrc = self.cmap.cmesh_node(src)
        cdst = self.cmap.cmesh_node(dst)
        size = packet_flits(ptype, self.cmesh_net.flit_bytes)
        packet = Packet(self._next_pid(), ptype, csrc, cdst, size, 0,
                        vc_class=vc_class, token=envelope)
        self.cmesh_nis[src].enqueue(packet)
        return packet

    # ------------------------------------------------------------------
    # Receiving (transaction level; network stats already recorded)
    # ------------------------------------------------------------------
    def pop_request(self, cb: int) -> Optional[object]:
        """One arrived request transaction at ``cb``, if any."""
        # Every CB polls every cycle and nearly every poll is empty:
        # answer those from the per-node delivered counts (an empty
        # poll never moves the toggle).
        if not self.request_net._delivered.get(cb) and (
            self.cmesh_net is None
            or not self.cmesh_net._delivered.get(self.cmap.cmesh_node(cb))
        ):
            return None
        toggle = self._pop_toggle.get(cb, 0)
        sources = [self._pop_request_mesh, self._pop_cmesh]
        for k in range(len(sources)):
            token = sources[(toggle + k) % len(sources)](cb)
            if token is not None:
                self._pop_toggle[cb] = (toggle + k + 1) % len(sources)
                return token
        return None

    def _pop_request_mesh(self, cb: int) -> Optional[object]:
        packet = self.request_net.pop_delivered(cb)
        return packet.token if packet else None

    def _pop_cmesh(self, tile: int) -> Optional[object]:
        if self.cmesh_net is None:
            return None
        cnode = self.cmap.cmesh_node(tile)
        port = self._cmesh_eject[(cnode, self.cmap.local_index(tile))]
        packet = self.cmesh_net.pop_delivered(cnode, port=port)
        return packet.token.inner if packet else None

    def reply_tiles(self) -> Set[int]:
        """Tiles at which a reply-side network holds a delivered packet.

        ``System.run`` polls :meth:`pop_reply` only at these tiles.  A
        CMesh overlay node stands for every tile it concentrates, and a
        single network's set also holds CBs with requests waiting.
        """
        tiles: Set[int] = set()
        for net in self._reply_side:
            if not net._delivered_total:
                continue
            nodes = [node for node, count in net._delivered.items() if count]
            if net is self.cmesh_net:
                for cnode in nodes:
                    tiles.update(self.cmap.tiles(cnode))
            else:
                tiles.update(nodes)
        return tiles

    def pop_reply(self, pe: int) -> Optional[object]:
        """One arrived reply transaction at ``pe``, if any."""
        if self.config.da2mesh:
            start = self._da2_pop_rr.get(pe, 0)
            n = len(self.reply_subnets)
            for k in range(n):
                subnet = self.reply_subnets[(start + k) % n]
                packet = subnet.pop_delivered(pe)
                if packet is not None:
                    self._da2_pop_rr[pe] = (start + k + 1) % n
                    return packet.token
        else:
            packet = self.reply_net.pop_delivered(pe)
            if packet is not None:
                return packet.token
        token = self._pop_cmesh(pe)
        if token is not None:
            return token
        return None

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance every network by one base cycle (honouring ratios)."""
        for i, (net, ratio, _role) in enumerate(self.networks):
            self._ratio_acc[i] += ratio
            while self._ratio_acc[i] >= 1.0:
                net.tick()
                self._ratio_acc[i] -= 1.0

    def idle(self) -> bool:
        return all(net.idle() for net, _r, _role in self.networks)

    def last_progress(self) -> int:
        """Most recent base cycle any network moved a flit (approximate)."""
        out = 0
        for net, ratio, _role in self.networks:
            out = max(out, int(net.last_progress / ratio))
        return out

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def register_telemetry(self, registry: "object") -> None:
        """Register every network's probes plus per-CB reply backlogs.

        Network prefixes are ``net.<name>`` (``net.request``,
        ``net.reply``, ``net.reply-sub3``, ...); NIs register through
        their network (EquiNox CB NIs contribute the per-EIR series).
        All probes are read-only: telemetry cannot perturb a run.
        """
        for net, _ratio, _role in self.networks:
            net.register_telemetry(registry, f"net.{net.name}")
        for cb in self.placement:
            registry.register_series(
                f"cb{cb}.reply_backlog",
                lambda cb=cb: self.reply_backlog(cb),
            )

    # ------------------------------------------------------------------
    # Stats access
    # ------------------------------------------------------------------
    def networks_by_role(self, role: str) -> List[Network]:
        """Networks a fault role name applies to (fault injection).

        ``reply``/``request`` match the corresponding dedicated networks
        plus a shared single network; ``any`` matches everything,
        overlays included.
        """
        roles = {
            "reply": ("reply", "both"),
            "request": ("request", "both"),
            "any": ("request", "reply", "both", "cmesh"),
        }[role]
        return [
            net for net, _ratio, net_role in self.networks
            if net_role in roles
        ]

    def reply_backlog(self, cb: int) -> int:
        """Packets queued in CB ``cb``'s reply NI(s) awaiting buffers."""
        ni = self.reply_nis[cb]
        if isinstance(ni, list):
            return sum(sub.backlog() for sub in ni)
        return ni.backlog()
