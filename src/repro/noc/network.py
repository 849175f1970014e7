"""A physical network: routers, links, event scheduling and delivery.

The network owns its clock (``cycle``), its routers, the in-flight flit
and credit events, the network interfaces that inject traffic, and the
per-node receive queues that ejected packets land in.  Multiple
networks (request/reply, CMesh overlay, DA2Mesh subnets) coexist in one
system and are ticked by the fabric at their own clock ratios.

Event model: router arbitration is processed per-router within a cycle,
but every effect (flit arrival downstream, credit return upstream)
lands exactly one cycle later, so intra-cycle processing order cannot
leak between routers.  That link latency is a constant, not a
parameter — the zero-load model in ``_deliver`` (``hops + size + 2``)
assumes it — so the pending events are two plain lists, ``_arrivals``
and ``_credits``, holding what the *next* tick applies.

Scheduling: two tick disciplines produce bit-identical behaviour.  The
*dense* scheduler walks every router and NI each cycle (the
differential-testing oracle, built by ``repro.verify`` and the tests,
never a user option); the *active* scheduler (default) visits
only armed components — routers holding flits and NIs with queued
packets or loaded buffers — and relies on every work-creating event
(flit arrival, NI enqueue, fault requeue) waking the affected
component.  Round-robin pointers advance only on wins, so skipping a
workless component is exactly equivalent to visiting it.  Past
saturation "holds flits" is every router, so the active scheduler also
skips a router marked ``blocked``, and a head whose allocation was
refused is re-offered only once an output it was refused on could take
it (``InputVC.memo``; both rules are on ``Router.tick``).  The dense
oracle never memoises a refusal and never sleeps a router.

Engines: an ``engine = "vector"`` network is *adaptive*: while enough
flits move per cycle it holds a struct-of-arrays snapshot in ``_soa``
(:mod:`repro.noc.vector`) and ticks through that object's batched
phases; each site below where the representations differ is one ``if
self._soa is not None`` branch.  An ``engine = "object"`` network never
arms and stays the oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.grid import Grid
from . import routing
from .router import OutputPort, Router
from .stats import NetworkStats
from .types import Flit, Packet

SCHEDULERS = ("dense", "active")
ENGINES = ("object", "vector")


def resolve_scheduler(value: Optional[str] = None) -> str:
    """Check a scheduler choice (``None``/empty = active)."""
    value = value or "active"
    if value not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {value!r}; expected one of {SCHEDULERS}"
        )
    return value


def resolve_engine(value: Optional[str] = None) -> str:
    """Normalise a tick-engine choice (``None``/empty = object).

    ``object`` is the golden-reference per-object simulator; ``vector``
    is the struct-of-arrays engine (:mod:`repro.noc.vector`), proven
    bit-identical by the engine-parity differential contract.
    """
    value = (value or "object").strip().lower()
    if value not in ENGINES:
        raise ValueError(
            f"unknown engine {value!r}; expected one of {ENGINES}"
        )
    return value


def network_class(engine: Optional[str] = None):
    """The :class:`Network` class whose ``engine`` attribute is ``engine``."""
    if resolve_engine(engine) == "vector":
        from .vector import VectorNetwork

        return VectorNetwork
    return Network


class Network:
    """One physical NoC (mesh or concentrated mesh)."""

    engine = "object"

    def __init__(
        self,
        name: str,
        grid: Grid,
        flit_bytes: int,
        num_vcs: int = 2,
        vc_capacity: int = 5,
        routing_algorithm: str = "oddeven",
        vc_classes: Optional[Sequence[Sequence[int]]] = None,
        clock_ratio: float = 1.0,
        eject_capacity: Optional[int] = None,
        monopolize: bool = False,
        monopolize_injection: bool = False,
        interposer_mesh_links: bool = False,
        scheduler: Optional[str] = None,
        loops: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.name = name
        # The SoA held while armed, and the module that builds it and
        # names the arming thresholds (None: an object network).
        self._soa = None
        self._vector = None
        if self.engine == "vector":
            from . import vector

            self._vector = vector
        # Arming observability; deliberately outside stats.snapshot().
        self.armed_cycles = 0
        self.arms = 0
        self.disarms = 0
        self.fallback_allocs = 0  # attempts decided by the golden Router
        self.scheduler = resolve_scheduler(scheduler)
        self._active_scheduler = self.scheduler == "active"
        self.grid = grid
        self.flit_bytes = flit_bytes
        self.num_vcs = num_vcs
        self.vc_capacity = vc_capacity
        self.clock_ratio = clock_ratio
        self.monopolize_injection = monopolize_injection
        self.interposer_mesh_links = interposer_mesh_links
        if vc_classes is None:
            vc_classes = [tuple(range(num_vcs))]
        self.vc_classes = [tuple(c) for c in vc_classes]
        if eject_capacity is None:
            # The receive buffer must hold at least one full packet or a
            # long packet could never finish ejecting (credits only
            # return when the whole packet is consumed).
            eject_capacity = 2 * vc_capacity
        self.eject_capacity = eject_capacity
        self.cycle = 0
        self.stats = NetworkStats(grid.size, flit_bytes)
        self.routers: List[Router] = []
        for node in grid.nodes():
            self.routers.append(
                Router(
                    node=node,
                    grid=grid,
                    network=self,
                    num_vcs=num_vcs,
                    vc_capacity=vc_capacity,
                    routing_algorithm=routing_algorithm,
                    vc_classes=self.vc_classes,
                    eject_capacity=eject_capacity,
                    monopolize=monopolize,
                )
            )
        # Loop topologies (ring/routerless) replace the mesh links with
        # precomputed unidirectional loops; each loop hop is its own
        # point-to-point link.  Wiring must precede the upstream map.
        self.loop_table: Optional[routing.LoopTable] = None
        if loops is None:
            self._wire_mesh()
        else:
            self._wire_loops(loops)
        # (node, in_port) -> upstream OutputPort: the credit links the
        # audit and the SoA walk; routers return credits through their
        # ``up`` lists, which set_upstream keeps equal to this map.
        self.upstream: Dict[Tuple[int, int], OutputPort] = {}
        for router in self.routers:
            for port, (nbr, nbr_port) in router.neighbors.items():
                self.set_upstream(nbr, nbr_port, router.outputs[port])
        # What the next tick applies: (node, port, vc, flit) landings
        # (port < 0: ejection sink) and (OutputPort, vc) credit returns.
        self._arrivals: List[Tuple] = []
        self._credits: List[Tuple[OutputPort, int]] = []
        # Active-set state: router nodes holding flits, and the
        # registration indices of NIs with pending work.  Maintained
        # only under the active scheduler; the dense scheduler walks
        # everything unconditionally and serves as the oracle.
        self.active: set = set()
        self._active_nis: set = set()
        # Set (and never cleared) by the fault injector once any fault
        # actually fires in this network.  Routers then forbid sending
        # a flit back out its arrival port — a move only a fault detour
        # can make attractive — so fault-free runs stay bit-identical.
        self.faults_fired = False
        self.nis: List["object"] = []  # NetworkInterface instances
        # (node, eject_port) -> deque of (packet, eject OutputPort).
        self.receive_queues: Dict[Tuple[int, int], Deque[Tuple[Packet, OutputPort]]] = {}
        self._pop_rr: Dict[int, int] = {}  # per-node eject-port rotation
        # Delivered packets queued per node (all eject ports): lets
        # pop_delivered return immediately for the common empty case.
        # A node has an entry only while its count is positive.
        self._delivered: Dict[int, int] = {}
        self._delivered_total = 0
        self.last_progress = 0  # cycle of the most recent committed move

    def _wire_mesh(self) -> None:
        for node in self.grid.nodes():
            x, y = self.grid.coord(node)
            for port in range(routing.NUM_MESH_PORTS):
                dx, dy = routing.port_delta(port)
                if self.grid.contains(x + dx, y + dy):
                    nbr = self.grid.node(x + dx, y + dy)
                    self.routers[node].connect(port, nbr, routing.opposite(port))

    def _wire_loops(self, loops: Sequence[Sequence[int]]) -> None:
        """Wire precomputed unidirectional loops instead of mesh links.

        Builds the :class:`~repro.noc.routing.LoopTable` both tick paths
        route by, its ``out`` column being the port each loop hop gets
        here; the mesh ports 0..3 stay unwired (and therefore always
        empty), so the tick loop skips them for free.
        """
        if self.num_vcs < 2:
            raise ValueError("loop datelines need at least 2 VCs")
        table = routing.LoopTable(self.grid.size, loops)
        for lane, members in enumerate(table.loops):
            base = lane * table.nodes
            for i, node in enumerate(members):
                nxt = members[(i + 1) % len(members)]
                out_port = self.routers[node].add_output_port(
                    self.num_vcs, self.vc_capacity
                )
                in_port = self.routers[nxt].add_input_port()
                self.routers[node].connect(out_port, nxt, in_port)
                table.out[base + node] = out_port
        self.loop_table = table

    # ------------------------------------------------------------------
    # Configuration helpers.  A structure change drops the SoA first, so
    # a snapshot never has to describe structure it predates; the next
    # tick re-arms if still busy.  Ports are only added through the two
    # methods below; the fault injector announces itself through
    # soa_invalidate().
    # ------------------------------------------------------------------
    def _disarm(self) -> None:
        if self._soa is not None:
            self._soa.materialize(self)
            self._soa = None
            self.disarms += 1

    def set_upstream(self, node: int, port: int, link: OutputPort) -> None:
        """Wire ``link`` as the credit link into ``node``'s input ``port``."""
        self.upstream[(node, port)] = link
        self.routers[node].up[port] = link

    def add_injection_port(self, node: int) -> int:
        """Add an NI-facing input port to ``node``'s router."""
        self._disarm()
        return self.routers[node].add_input_port()

    def add_eject_port(self, node: int) -> int:
        """Add an extra ejection port (MultiPort / concentration).

        Its depth is the network's configured ``eject_capacity``, so
        extra ports match the ports built at construction time (a
        ``vc_capacity``-derived depth would give concentrated-mesh ports
        the wrong depth whenever the network was constructed with an
        explicit ``eject_capacity``).
        """
        self._disarm()
        return self.routers[node].add_eject_port(self.eject_capacity)

    def register_ni(self, ni: "object") -> None:
        ni._net_index = len(self.nis)
        self.nis.append(ni)

    def wake_ni(self, ni: "object") -> None:
        """Resync an NI's armed state after a mutation outside its tick.

        Call *after* the mutation (enqueue, credit return to a stalled
        link, fault quarantine/heal/requeue): the NI is armed exactly
        when it has work, keeping the armed set equal to the set of NIs
        with work — the scheduler audit's invariant.
        """
        if self._active_scheduler:
            if ni.has_work():
                self._active_nis.add(ni._net_index)
            else:
                self._active_nis.discard(ni._net_index)

    # ------------------------------------------------------------------
    # Telemetry (read-only probes; see repro.telemetry)
    # ------------------------------------------------------------------
    def register_telemetry(self, registry: "object", prefix: str) -> None:
        """Register this network's probes into a telemetry registry.

        Everything registered here only *reads* simulator state, so a
        telemetry-enabled run keeps ``stats_fingerprint`` bit-identical
        to a telemetry-off run (pinned by the differential test).
        """
        stats = self.stats
        active_nodes = self._active_nodes
        registry.register_series(f"{prefix}.in_flight", self.in_flight)
        registry.register_series(
            f"{prefix}.flits_injected", lambda: stats.flits_injected
        )
        registry.register_series(
            f"{prefix}.flits_ejected", lambda: stats.flits_ejected
        )
        registry.register_series(
            f"{prefix}.ni_backlog",
            lambda: sum(ni.backlog() for ni in self.nis),
        )
        registry.register_series(
            f"{prefix}.ni_buffer_flits",
            lambda: sum(ni.buffer_occupancy() for ni in self.nis),
        )
        registry.register_series(
            f"{prefix}.active_routers", lambda: len(active_nodes())
        )
        registry.register_residency(
            f"{prefix}.router_active", self.grid.size, active_nodes
        )
        for name in NetworkStats.TELEMETRY_COUNTERS:
            registry.register_final(
                f"{prefix}.{name}", lambda name=name: getattr(stats, name)
            )
        registry.register_final(
            f"{prefix}.peak_router_flits", self._peak_router_flits
        )
        for ni in self.nis:
            ni.register_telemetry(registry, prefix)

    # The two telemetry reads of per-router buffer state.
    def _active_nodes(self):
        if self._soa is not None:
            return self._soa.occupied_nodes()
        if self._active_scheduler:
            return self.active
        # Dense oracle: the equivalent ground truth is the set of
        # routers currently holding flits.
        return [r.node for r in self.routers if r.flit_count]

    def _peak_router_flits(self) -> int:
        if self._soa is not None:
            return int(self._soa.peak.max())
        return max((r.peak_flits for r in self.routers), default=0)

    # ------------------------------------------------------------------
    # Event scheduling (NIs; routers append to the lists they are handed)
    # ------------------------------------------------------------------
    def schedule_flit(self, node: int, port: int, vc: int, flit: Flit) -> None:
        """Put ``flit`` on the link into ``(node, port, vc)``: lands next tick."""
        if self._soa is not None:
            self._soa.schedule(node, port, vc, flit)
        else:
            self._arrivals.append((node, port, vc, flit))

    def reclaim_scheduled_flits(self, node: int, port: int) -> List[Flit]:
        """Remove and return flits in flight toward ``(node, port)``.

        Fault-injection support: when a link fails, the flits already on
        the wire are pulled back in arrival order so the injector can
        restore them upstream and account for them in the dropped-flit
        ledger (keeping the conservation audits balanced).
        """
        events = self._arrivals
        reclaimed = [ev[3] for ev in events if ev[0] == node and ev[1] == port]
        if reclaimed:
            self._arrivals = [
                ev for ev in events if ev[0] != node or ev[1] != port
            ]
        return reclaimed

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def pop_delivered(self, node: int, port: Optional[int] = None) -> Optional[Packet]:
        """Consume one delivered packet at ``node`` (frees its buffer credits).

        With ``port`` given, only that ejection port's queue is drained
        (concentrated meshes dedicate a port per attached tile);
        otherwise the node's ejection ports are scanned round-robin.
        """
        if not self._delivered.get(node):
            return None
        rotate = False
        if port is not None:
            ports = [port]
        else:
            ports = self.routers[node].eject_ports
            if len(ports) > 1:
                rotate = True
                start = self._pop_rr.get(node, 0)
                ports = ports[start:] + ports[:start]
        for k, p in enumerate(ports):
            queue = self.receive_queues.get((node, p))
            if queue:
                packet, eject_port = queue.popleft()
                # Free the consumed packet's receive-buffer space.
                if self._soa is not None:
                    self._soa.return_eject_credits(
                        eject_port, packet.size, self.cycle
                    )
                else:
                    eject_port.credits[0] += packet.size
                    eject_port.router.blocked = False
                left = self._delivered[node] - 1
                if left:
                    self._delivered[node] = left
                else:
                    del self._delivered[node]
                self._delivered_total -= 1
                if rotate:
                    # Advance past the port that actually served, and
                    # only on a successful pop — rotating on empty scans
                    # (or by a fixed step) starves later ports whenever
                    # load is asymmetric across eject ports.
                    self._pop_rr[node] = (start + k + 1) % len(ports)
                return packet
        return None

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the network by one of its own clock cycles.

        An adaptive network first picks the path by the flits about to
        land (``vector.ARM_FLITS``/``DISARM_FLITS``, read every tick).
        """
        vector = self._vector
        if vector is not None:
            if self._soa is not None:
                if self._scheduled() < vector.DISARM_FLITS:
                    self._disarm()
            elif len(self._arrivals) >= vector.ARM_FLITS:
                self._soa = vector._SoA(self)
                self.arms += 1
        soa = self._soa
        self.cycle += 1
        cycle = self.cycle
        stats = self.stats
        stats.cycles += 1
        if soa is not None:
            self.armed_cycles += 1
            soa.tick(self, cycle)
            return
        active = self._active_scheduler
        routers = self.routers

        # Take this cycle's events; an empty list is reused as is.
        credits = self._credits
        if credits:
            self._credits = []
        landed = self._arrivals
        if landed:
            self._arrivals = []
        for port, vc in credits:  # credit returns
            port.credits[vc] += 1
            if port.router is not None:
                port.router.blocked = False
            elif port.waker is not None:
                port.waker()

        writes = len(landed)
        for node, port, vc, flit in landed:
            if port < 0:  # ejection sink arrival; -port-1 is the eject port
                self._deliver(node, -port - 1, flit, cycle)
                writes -= 1
                continue
            router = routers[node]
            flit.buffered_at = cycle
            router.inputs[port][vc].queue.append(flit)
            router.flit_count += 1
            if router.flit_count > router.peak_flits:
                router.peak_flits = router.flit_count
            router.port_flits[port] += 1
            router.occ |= 1 << port
            router.blocked = False
            if active:
                self.active.add(node)
        stats.buffer_writes += writes

        self._tick_nis(cycle)

        if active:
            if not self.active:
                return
            # Blocked routers stay in ``active`` (they hold flits), unticked.
            routers = [
                routers[node] for node in sorted(self.active)
                if not routers[node].blocked
            ]
        # else the dense oracle: unconditionally walk every router,
        # never reading ``blocked``.  A workless component's tick is a
        # no-op (rr pointers advance only on wins), so this is
        # behaviourally identical to the active path — and catches any
        # missed wake as a fingerprint mismatch.
        #
        # Every move of this tick lands next cycle, on the two lists
        # (NIs may have started ``arrivals``) each router is handed.
        arrivals = self._arrivals
        credits = self._credits
        before = len(arrivals)
        ejected = 0
        for router in routers:
            ejected += router.tick(cycle, arrivals, credits)
            if active and not router.flit_count:
                self.active.discard(router.node)
        moved = len(arrivals) - before
        if not moved:
            return
        stats.buffer_reads += moved
        stats.xbar_traversals += moved
        stats.flits_ejected += ejected
        if self.interposer_mesh_links:
            stats.link_hops_interposer += moved - ejected
            # A float in the fingerprint: add the exact integer count.
            stats.interposer_hop_length += moved - ejected
        else:
            stats.link_hops_onchip += moved - ejected
        self.last_progress = cycle

    def _tick_nis(self, cycle: int) -> None:
        """The NI phase of a tick, shared by both tick paths.

        All effects (flit onto a link, core reservation) are local to
        the NI or scheduled >= 1 cycle ahead, and an NI only gains work
        outside its own tick via enqueue, fault requeue, or a credit
        returning to a stalled injection link — all of which wake it —
        so visiting only armed NIs (in registration order, matching the
        dense walk over ``nis``) is bit-identical to visiting all of
        them: ticking a credit-stalled NI is a no-op.
        """
        if not self._active_scheduler:
            for ni in self.nis:
                ni.tick(cycle)
        elif self._active_nis:
            armed = self._active_nis
            nis = self.nis
            # A drained NI leaves the set as it is passed: no tick here
            # wakes another NI, so none can re-arm one already passed.
            for idx in sorted(armed) if len(armed) > 1 else tuple(armed):
                ni = nis[idx]
                ni.tick(cycle)
                if not ni.has_work():
                    armed.discard(idx)

    def _deliver(self, node: int, eject_port: int, flit: Flit, cycle: int) -> None:
        if not flit.is_tail:
            return
        packet = flit.packet
        packet.delivered = cycle
        self.receive_queues.setdefault((node, eject_port), deque()).append(
            (packet, packet.eject_port)
        )
        self._delivered[node] = self._delivered.get(node, 0) + 1
        self._delivered_total += 1
        inject = packet.inject_router if packet.inject_router is not None else packet.src
        if packet.lane is None:
            hops = self.grid.hops(inject, node)
        else:
            hops = self.loop_table.hops(packet.lane, inject, node)
        # Zero-load pipeline: 1 cycle NI link + 1 cycle per hop + 1 cycle
        # eject arbitration + 1 cycle to the sink + (size-1) serialisation.
        non_queuing = hops + packet.size + 2
        self.stats.record_delivery(packet, non_queuing)

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """Nothing scheduled, buffered, queued or awaiting pop.

        Stronger than :meth:`idle`: pending credit returns and
        delivered-but-unpopped packets also block quiescence, because a
        tick (or an external pop) could still change state.
        """
        soa = self._soa
        credits = self._credits if soa is None else soa.p_cs or soa.p_obj_credits
        return not (credits or self._delivered_total) and self.idle()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sync_for_inspection(self) -> None:
        """Make router/NI *objects* reflect canonical simulator state.

        Auditors and dump tools call this before reading object state
        directly; an armed network carries on from its arrays.
        """
        if self._soa is not None:
            self._soa.materialize(self)

    def soa_invalidate(self) -> None:
        """Announce that a fault is changing structure.

        Fault injection (every fire, every link heal; not an NI-buffer
        heal, which touches nothing the SoA mirrors) mutates
        ``failed_outputs`` / ``faults_fired`` / NI wiring directly on
        the objects and then pulls in-flight flits back out of
        ``_arrivals``, so the objects must be canonical first.  Either
        change can turn a refused allocation into a grant anywhere in
        the network, so every router's sleep ends here, and every refused
        head's memo goes with it.
        """
        self._disarm()
        for router in self.routers:
            router.blocked = False
            router.drop_memos()

    # The one definition of busy: three reads, each answered by the
    # representation that is canonical right now.  The active sets obey
    # the audited invariants: every buffered flit's router is in
    # ``active`` and the armed NIs are exactly those with work.
    def _buffered(self) -> int:
        """Flits in router input buffers."""
        if self._soa is not None:
            return self._soa.buffered_total
        if self._active_scheduler:
            routers = self.routers
            return sum(routers[n].flit_count for n in self.active)
        return sum(r.flit_count for r in self.routers)

    def _scheduled(self) -> int:
        """Flits on a link or on their way into an ejection sink."""
        soa = self._soa
        if soa is not None:
            return len(soa.p_slots) + len(soa.p_sink)
        return len(self._arrivals)

    def _ni_work(self) -> bool:
        """Whether ticking some NI could have an effect."""
        if self._active_scheduler:
            return bool(self._active_nis)
        return any(ni.has_work() for ni in self.nis)

    def in_flight(self) -> int:
        """Flits buffered in routers plus scheduled arrivals."""
        return self._buffered() + self._scheduled()

    def idle(self) -> bool:
        """No flits anywhere and no NI has pending work (pending credit
        returns do not count; :meth:`quiescent` adds them)."""
        return not (self._scheduled() or self._ni_work() or self._buffered())
