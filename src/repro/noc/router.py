"""A virtual-channel wormhole router with credit-based flow control.

The router follows BookSim's architecture at a one-cycle granularity:
route computation, VC allocation and separable input-first switch
allocation all happen in the cycle a flit sits at the head of its input
VC, and a winning flit traverses the crossbar onto the output link in
the same cycle (an aggressive single-stage pipeline; per-hop latency is
router + link = 2 cycles at zero load).

Port index space (per router):

* ``0..3`` — mesh ports E/W/S/N (input and output),
* ``4..4+e-1`` — ejection ports (output only; ``e`` > 1 for MultiPort),
* remaining — injection and interposer ports (input only), fed by
  network interfaces over :class:`UpstreamLink`-style credit links.

Virtual channels hold one packet each (Table 1): a VC's buffer capacity
equals the maximum packet size and output VC allocation is released
when the tail flit departs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.grid import Grid
from . import routing
from .types import Flit

MONOPOLY_CLASSES = (1,)
"""Packet classes VC monopolisation lets borrow foreign VCs: replies."""


class InputVC:
    """One virtual-channel FIFO at a router input port."""

    __slots__ = ("queue", "out_port", "out_vc")

    def __init__(self) -> None:
        self.queue: Deque[Flit] = deque()
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None


class OutputPort:
    """Credit and allocation state for one output (or NI-to-router) link.

    ``credits[v]`` counts free flit slots in the downstream input VC
    ``v``; ``owner[v]`` is the upstream agent (input ``(port, vc)`` pair
    or an NI buffer id) holding the VC for the packet in flight.
    """

    __slots__ = ("num_vcs", "credits", "owner", "rr", "interposer",
                 "capacity", "waker", "router")

    def __init__(
        self, num_vcs: int, capacity: int, interposer: bool = False,
        router: Optional["Router"] = None,
    ) -> None:
        self.num_vcs = num_vcs
        self.capacity = capacity
        self.credits: List[int] = [capacity] * num_vcs
        self.owner: List[Optional[object]] = [None] * num_vcs
        self.rr = 0  # output-side round-robin pointer
        self.interposer = interposer
        # Optional callback fired when a credit returns to this port.
        # NI injection links use it to re-arm a credit-stalled NI under
        # the active scheduler; router-to-router ports leave it None.
        self.waker: Optional[object] = None
        # The router a credit returning here wakes (None on an NI link).
        self.router = router

    def free_vcs(self, allowed: Sequence[int]) -> List[int]:
        """VCs in ``allowed`` that are unowned and have buffer space."""
        return [v for v in allowed if self.owner[v] is None and self.credits[v] > 0]


class Router:
    """One mesh router; owned and ticked by a :class:`~repro.noc.network.Network`."""

    __slots__ = (
        "node",
        "network",
        "grid",
        "num_vcs",
        "inputs",
        "outputs",
        "neighbors",
        "eject_ports",
        "input_ports",
        "rr_in",
        "flit_count",
        "port_flits",
        "occ",
        "up",
        "rr_mod",
        "_vc_orders",
        "routing_algorithm",
        "vc_classes",
        "monopolize",
        "eject_filter",
        "failed_outputs",
        "peak_flits",
        "blocked",
    )

    def __init__(
        self,
        node: int,
        grid: Grid,
        network: "object",
        num_vcs: int,
        vc_capacity: int,
        routing_algorithm: str,
        vc_classes: Sequence[Sequence[int]],
        eject_capacity: int = 16,
        monopolize: bool = False,
    ) -> None:
        self.node = node
        self.grid = grid
        self.network = network
        self.num_vcs = num_vcs
        self.routing_algorithm = routing_algorithm
        # vc_classes[c] = VCs that packets of class c may use.
        self.vc_classes = [tuple(vcs) for vcs in vc_classes]
        self.monopolize = monopolize

        self.neighbors: Dict[int, Tuple[int, int]] = {}  # port -> (node, in_port)
        self.inputs: Dict[int, List[InputVC]] = {
            p: [InputVC() for _ in range(num_vcs)]
            for p in range(routing.NUM_MESH_PORTS)
        }
        self.outputs: Dict[int, OutputPort] = {}
        for p in range(routing.NUM_MESH_PORTS):
            self.outputs[p] = OutputPort(num_vcs, vc_capacity, router=self)
        # Ejection modelled as a single-VC link into the node's receive
        # queue; one packet drains at a time per port.  MultiPort and
        # concentration add more with add_eject_port.
        eject = routing.NUM_MESH_PORTS
        self.outputs[eject] = OutputPort(1, eject_capacity, router=self)
        self.eject_ports: List[int] = [eject]
        self.input_ports: List[int] = list(range(routing.NUM_MESH_PORTS))
        # Port-indexed, like ``up`` below (0 at non-input indices).
        self.rr_in: List[int] = [0] * routing.NUM_MESH_PORTS
        self.flit_count = 0
        # High-water mark of buffered flits (telemetry: per-router
        # congestion without any per-cycle sampling cost).
        self.peak_flits = 0
        # Flits buffered per input port, and the occupancy bitmask the
        # tick walks instead of scanning every port: bit p is set
        # exactly while ``port_flits[p] > 0``.
        self.port_flits: List[int] = [0] * routing.NUM_MESH_PORTS
        self.occ = 0
        # up[p]: the OutputPort feeding input port p (None while
        # unwired), for credit return; written only by
        # ``Network.set_upstream`` beside ``network.upstream``.
        self.up: List[Optional[OutputPort]] = [None] * routing.NUM_MESH_PORTS
        # Round-robin modulus: one slot per port index actually in use.
        # Must cover injection/interposer ports added later — a fixed
        # modulus would alias high port indices and break fairness.
        self.rr_mod = 1 + max(max(self.inputs), max(self.outputs))
        # _vc_orders[s] is the VC scan order starting at pointer s;
        # precomputing it keeps the per-cycle loop free of modulo math.
        self._vc_orders = [
            tuple((s + k) % num_vcs for k in range(num_vcs))
            for s in range(num_vcs)
        ]
        # Optional hook restricting which eject ports a packet may use
        # (concentrated meshes dedicate one port per attached tile).
        self.eject_filter = None
        # Output ports currently failed by fault injection.  Failure is
        # fail-stop for *new* allocations only: a packet already
        # allocated to the port finishes its wormhole normally (links
        # fail at packet boundaries).
        self.failed_outputs: set = set()
        # Sleep mark: set by a tick that raised no request, cleared by
        # whatever could let one be raised (see tick()).
        self.blocked = False

    # ------------------------------------------------------------------
    # Construction helpers (called by the network builder)
    # ------------------------------------------------------------------
    def connect(self, port: int, neighbor: int, neighbor_port: int) -> None:
        """Wire mesh ``port`` to ``neighbor``'s input ``neighbor_port``."""
        self.neighbors[port] = (neighbor, neighbor_port)

    def add_input_port(self) -> int:
        """Add an input-only port (injection or interposer); returns index."""
        port = 1 + max(max(self.inputs), max(self.outputs))
        self.inputs[port] = [InputVC() for _ in range(self.num_vcs)]
        self.input_ports.append(port)
        grow = port + 1 - len(self.up)
        self.up.extend([None] * grow)
        self.rr_in.extend([0] * grow)
        self.port_flits.extend([0] * grow)
        self.rr_mod = max(self.rr_mod, port + 1)
        return port

    def add_output_port(self, num_vcs: int, capacity: int) -> int:
        """Add an output-only link port (loop topologies); returns index."""
        port = 1 + max(max(self.inputs), max(self.outputs))
        self.outputs[port] = OutputPort(num_vcs, capacity, router=self)
        self.rr_mod = max(self.rr_mod, port + 1)
        return port

    def add_eject_port(self, capacity: int) -> int:
        """Add an extra ejection port (MultiPort / concentration)."""
        port = 1 + max(max(self.inputs), max(self.outputs))
        self.outputs[port] = OutputPort(1, capacity, router=self)
        self.eject_ports.append(port)
        self.rr_mod = max(self.rr_mod, port + 1)
        self.blocked = False
        return port

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def tick(self, cycle: int, arrivals: List[Tuple], credits: List[Tuple]) -> int:
        """Arbitrate, then move every winning flit; returns how many ejected.

        A winner leaves in one pass: popped, its upstream credit put on
        ``credits`` and its arrival downstream (or at the ejection sink,
        as port ``-eject - 1``) on ``arrivals`` — the network's
        next-cycle event lists, whose growth is the network's move count.

        Round-robin pointers advance only on wins, so a tick that raises
        no request mutates nothing, and what it read only a flit arrival,
        a credit returning to one of this router's outputs or a
        structural change (eject port added, fault fired or healed, SoA
        materialised) can write.  It marks the router ``blocked``; those
        sites clear the mark and the active scheduler skips the router
        until then.  The dense oracle never reads the mark, so a missed
        wake is a fingerprint mismatch, not a hang.
        """
        # --- Per-input-port arbitration (separable, input first); each
        # request meets its output's arbitration as it is raised -------
        inputs = self.inputs
        outputs = self.outputs
        rr_in = self.rr_in
        rr_mod = self.rr_mod
        port_flits = self.port_flits
        vc_orders = self._vc_orders
        # out_port -> (in_port, in_vc, ivc) in first-request order per
        # output, which is the arrival order downstream.
        winners: Optional[Dict[int, Tuple[int, int, InputVC]]] = None
        # Occupied input ports in ascending order, as ``input_ports``
        # lists them (an added port always gets the highest index).
        occ = self.occ
        while occ:
            low = occ & -occ
            occ ^= low
            port = low.bit_length() - 1
            vcs = inputs[port]
            for vc in vc_orders[rr_in[port]]:
                ivc = vcs[vc]
                if not ivc.queue:
                    continue
                if ivc.out_port is None:
                    flit = ivc.queue[0]
                    if flit.is_head:
                        self._route_and_allocate(port, vc, ivc, flit)
                    if ivc.out_port is None:
                        continue
                out_port = ivc.out_port
                out = outputs[out_port]
                if out.credits[ivc.out_vc] <= 0:
                    continue
                if winners is None:
                    winners = {out_port: (port, vc, ivc)}
                elif out_port not in winners or (
                    (port - out.rr) % rr_mod
                    < (winners[out_port][0] - out.rr) % rr_mod
                ):
                    winners[out_port] = (port, vc, ivc)
                break
        if winners is None:
            self.blocked = True
            return 0

        # --- Switch traversal ------------------------------------------
        node = self.node
        neighbors = self.neighbors
        up = self.up
        num_vcs = self.num_vcs
        residence = 0
        ejected = 0
        for out_port, (in_port, in_vc, ivc) in winners.items():
            out = outputs[out_port]
            out_vc = ivc.out_vc
            flit = ivc.queue.popleft()
            left = port_flits[in_port] - 1
            port_flits[in_port] = left
            if not left:
                self.occ &= ~(1 << in_port)
            out.credits[out_vc] -= 1
            out.rr = (in_port + 1) % rr_mod
            rr_in[in_port] = (in_vc + 1) % num_vcs
            if flit.is_tail:
                out.owner[out_vc] = None
                ivc.out_port = None
                ivc.out_vc = None
            # A traversal occupies the router for at least one cycle; waits
            # in the input buffer add on top (the Figure-4 heat metric).
            residence += cycle - flit.buffered_at + 1
            link = up[in_port]
            if link is not None:
                credits.append((link, in_vc))
            nbr = neighbors.get(out_port)
            if nbr is not None:
                arrivals.append((nbr[0], nbr[1], out_vc, flit))
            else:  # ejection
                arrivals.append((node, -out_port - 1, 0, flit))
                flit.packet.eject_port = out
                ejected += 1
        self.flit_count -= len(winners)
        stats = self.network.stats
        stats.residence_cycles[node] += residence
        stats.residence_count[node] += len(winners)
        return ejected

    # ------------------------------------------------------------------
    # Route computation + output VC allocation for a head flit
    # ------------------------------------------------------------------
    def _route_and_allocate(
        self, port: int, vc: int, ivc: InputVC, flit: Flit
    ) -> None:
        packet = flit.packet
        if packet.dst == self.node:
            self._allocate_eject(port, vc, ivc)
            return
        if packet.lane is not None:
            # A loop lane has one forward port per node, and the VC is
            # its dateline's, not a class's (routing.LoopTable).
            out_port, out_vc = self.network.loop_table.route(
                packet.lane, packet.inject_router, self.node
            )
            self._grant(port, vc, ivc, self._scan_outputs(
                (out_port,), (out_vc,), (), packet))
            return
        src = packet.inject_router if packet.inject_router is not None else packet.src
        candidates = routing.route_candidates(
            self.grid, self.routing_algorithm, self.node, src, packet.dst
        )
        allowed = self.vc_classes[packet.vc_class]
        borrowable = self._borrowable_vcs(packet.vc_class, vc)
        # Once any fault has fired in this network, a flit may never be
        # routed back out its arrival port.  Minimal routing never makes
        # the back direction productive, so this only bites packets that
        # previously detoured around a fault — and for those it is what
        # prevents a detour from ping-ponging between two routers.
        exclude = (
            port
            if port < routing.NUM_MESH_PORTS and self.network.faults_fired
            else -1
        )
        best = self._scan_outputs(candidates, allowed, borrowable, packet,
                                  exclude)
        if best is None and self.network.faults_fired:
            # Every turn-model-legal port may be structurally unusable
            # (failed, disconnected, or the arrival port).  Only then
            # widen — a merely credit-blocked candidate keeps the turn
            # model intact and simply waits.
            usable = any(
                p in self.neighbors
                and p not in self.failed_outputs
                and p != exclude
                for p in candidates
                if p != routing.PORT_EJECT
            )
            if not usable:
                # Fault-boundary traversal: try minimal directions in
                # order, then turn right of the primary direction, then
                # left, then reverse — strict priority, first
                # allocatable port wins (unlike the credit-adaptive
                # scan above).  Combined with the no-backtrack rule
                # this walks a packet deterministically around a fault
                # region; pathological multi-fault layouts can still
                # trap one, and the stall watchdog backstops those
                # with a diagnosis.
                minimal = routing.minimal_ports(
                    self.grid, self.node, packet.dst
                )
                primary = minimal[0]
                order = list(minimal) + [
                    routing.turn_right(primary),
                    routing.turn_left(primary),
                    routing.opposite(primary),
                ]
                tried = set()
                for p in order:
                    if p in tried:
                        continue
                    tried.add(p)
                    best = self._scan_outputs(
                        (p,), allowed, borrowable, packet, exclude
                    )
                    if best is not None:
                        break
        self._grant(port, vc, ivc, best)

    def _grant(self, port: int, vc: int, ivc: InputVC,
               best: Optional[Tuple[int, int]]) -> None:
        if best is not None:
            ivc.out_port, ivc.out_vc = best
            self.outputs[best[0]].owner[best[1]] = (port, vc)
            self.network.stats.vc_allocs += 1

    def _scan_outputs(
        self,
        ports: Sequence[int],
        allowed: Sequence[int],
        borrowable: Sequence[int],
        packet: "object",
        exclude: int = -1,
    ) -> Optional[Tuple[int, int]]:
        """Best allocatable ``(out_port, out_vc)`` among ``ports``.

        Minimal adaptive: the port with the most own-class credits,
        then its free VC with the most credits; first of equals twice.
        """
        failed = self.failed_outputs
        neighbors = self.neighbors
        outputs = self.outputs
        best_total = best_port = best_vc = -1
        for out_port in ports:
            if (
                out_port == exclude
                or out_port not in neighbors  # PORT_EJECT never is
                or (failed and out_port in failed)
            ):
                continue
            out = outputs[out_port]
            credits = out.credits
            owner = out.owner
            out_vc = -1
            most = total = 0
            for v in allowed:
                free = credits[v]
                total += free
                if free > most and owner[v] is None:
                    most = free
                    out_vc = v
            if out_vc < 0 and borrowable and out.capacity >= packet.size:
                # VC monopolisation: borrow a foreign VC, but only when
                # its buffer is completely empty and the whole packet
                # fits, so the borrower fully vacates its own-class
                # resources (cut-through on the borrowed hop) and never
                # parks behind foreign-class flits.
                for v in borrowable:
                    if owner[v] is None and credits[v] == out.capacity:
                        out_vc = v
                        break
            if out_vc >= 0 and total > best_total:
                best_total, best_port, best_vc = total, out_port, out_vc
        return (best_port, best_vc) if best_port >= 0 else None

    def _allocate_eject(self, port: int, vc: int, ivc: InputVC) -> None:
        packet = ivc.queue[0].packet
        ports = (
            self.eject_filter(packet) if self.eject_filter is not None
            else self.eject_ports
        )
        for eject in ports:
            out = self.outputs[eject]
            if out.owner[0] is None and out.credits[0] > 0:
                out.owner[0] = (port, vc)
                ivc.out_port = eject
                ivc.out_vc = 0
                return

    def _borrowable_vcs(self, vc_class: int, current_vc: int) -> Sequence[int]:
        """Foreign VCs this packet may additionally allocate (VC-Mono).

        VC monopolisation: when no flit of the other class is buffered
        at this router, the present class may also use the other
        class's VCs.  Three restrictions keep the protocol
        deadlock-free:

        * only :data:`MONOPOLY_CLASSES` (replies, whose ejection is
          unconditionally consumed at PEs) may borrow — a request
          parked in a reply VC could block the very replies whose
          draining the request's own progress depends on;
        * a packet *currently* in a borrowed VC must return to its own
          class downstream, so a borrowed reply waits only on
          reply-class resources, which always drain; and
        * (checked by the caller) the packet must fit entirely in the
          borrowed VC's free space, so the borrower never stalls
          mid-transfer while holding own-class buffers upstream.
        """
        if not self.monopolize or vc_class not in MONOPOLY_CLASSES:
            return ()
        own = self.vc_classes[vc_class]
        if current_vc not in own:
            return ()  # already borrowing: own class only downstream
        foreign = []
        for other in range(len(self.vc_classes)):
            if other == vc_class:
                continue
            for ovc in self.vc_classes[other]:
                for p in self.input_ports:
                    q = self.inputs[p][ovc].queue
                    if q and q[0].packet.vc_class == other:
                        return ()
                foreign.append(ovc)
        return tuple(foreign)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        x, y = self.grid.coord(self.node)
        return f"Router({x},{y})"
