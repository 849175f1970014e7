"""Network interfaces: the injection side of every scheme.

Three NI flavours cover all seven compared schemes:

* :class:`NetworkInterface` — one injection buffer wired to the local
  router (SingleBase, VC-Mono, SeparateBase, DA2Mesh subnets, and the
  per-tile concentration ports of Interposer-CMesh).
* :class:`MultiPortInterface` — several buffers, all wired to injection
  ports on the *same* local router (the MultiPort scheme).
* :class:`EquiNoxInterface` — the paper's modified CB NI (Figure 8):
  five single-packet buffers, one to the local router and up to four to
  EIRs over single-cycle interposer links, with the shortest-path-only
  buffer-selection policy of "Buffer Selection 1".

Every buffer drains one flit per cycle into its target router input
port, subject to credit availability, exactly like a link.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.eir import EirDesign, shortest_path_eirs
from .network import Network
from .router import OutputPort
from .types import Flit, Packet


class InjectionBuffer:
    """One packet-sized injection buffer wired to a router input port."""

    __slots__ = ("network", "target_node", "target_port", "link", "flits",
                 "cur_vc", "interposer", "length", "failed", "draining",
                 "flits_sent", "stalled", "ni")

    def __init__(
        self,
        network: Network,
        target_node: int,
        interposer: bool = False,
        length: float = 0.0,
    ) -> None:
        self.network = network
        self.target_node = target_node
        self.target_port = network.add_injection_port(target_node)
        self.link = OutputPort(
            network.num_vcs, network.vc_capacity, interposer=interposer
        )
        self.flits: Deque[Flit] = deque()
        self.cur_vc: Optional[int] = None
        self.interposer = interposer
        self.length = length
        # Fault-injection state.  ``failed`` quarantines the buffer (no
        # new packets, no sends); ``draining`` lets a partially
        # transmitted wormhole packet finish over the failing link at a
        # packet boundary, after which the buffer quarantines itself.
        self.failed = False
        self.draining = False
        # Lifetime flits this buffer pushed onto its link (telemetry:
        # the per-EIR injection-balance numbers of Figures 4/7).
        self.flits_sent = 0
        # Credit stall: set when a send blocks on link credits, cleared
        # by the returning credit (which also re-arms the owning NI).
        # Purely a scheduling hint — a stalled buffer's try_send is a
        # no-op, so skipping it cannot change simulation state.
        self.stalled = False
        self.ni: Optional["NetworkInterface"] = None
        self.link.waker = self._on_credit

    def _on_credit(self) -> None:
        if self.stalled:
            self.stalled = False
            if self.ni is not None:
                self.network.wake_ni(self.ni)

    @property
    def free(self) -> bool:
        return not self.flits

    @property
    def available(self) -> bool:
        """Free to accept a new packet (empty and not quarantined)."""
        return not self.flits and not self.failed

    def load(self, packet: Packet, start_cycle: int = 0,
             core_rate: float = 0.0) -> None:
        """Accept a packet; flits become sendable as the core serialises.

        ``core_rate`` is the NI core's serialisation rate in flits per
        (this network's) cycle; flit ``k`` is sendable once the core has
        produced it.  A zero rate means instantly available.
        """
        if self.flits:
            raise RuntimeError("injection buffer already occupied")
        if self.failed:
            raise RuntimeError("injection buffer is quarantined")
        flits = packet.make_flits()
        if core_rate > 0:
            for k, flit in enumerate(flits):
                flit.ready_at = start_cycle + int((k + 1) / core_rate)
        self.flits.extend(flits)

    def try_send(self, cycle: int) -> None:
        """Send up to one flit into the target router this cycle."""
        if not self.flits or self.failed:
            return
        flit = self.flits[0]
        if flit.ready_at > cycle:
            return  # the NI core has not serialised this flit yet
        packet = flit.packet
        if flit.is_head and self.cur_vc is None:
            # An injection port only ever carries this node's class of
            # traffic, so monopolising its VCs (VC-Mono) is always safe.
            if self.network.monopolize_injection:
                allowed = range(self.network.num_vcs)
            else:
                allowed = self.network.vc_classes[packet.vc_class]
            free = self.link.free_vcs(allowed)
            if not free:
                # Our own link's VCs are owned only by us, so "no free
                # VC" here always means "no credits": sleep until one
                # returns.
                self.stalled = True
                return
            self.cur_vc = max(free, key=lambda v: self.link.credits[v])
            self.link.owner[self.cur_vc] = self
        if self.cur_vc is None or self.link.credits[self.cur_vc] <= 0:
            self.stalled = True
            return
        self.flits.popleft()
        self.link.credits[self.cur_vc] -= 1
        self.network.schedule_flit(
            self.target_node, self.target_port, self.cur_vc, flit
        )
        self.flits_sent += 1
        stats = self.network.stats
        stats.flits_injected += 1
        if self.interposer:
            stats.link_hops_interposer += 1
            stats.interposer_hop_length += self.length
        if flit.is_head:
            packet.injected = cycle
            packet.inject_router = self.target_node
        if flit.is_tail:
            self.link.owner[self.cur_vc] = None
            self.cur_vc = None
            if self.draining:
                # The wormhole packet committed before the fault has now
                # fully left; quarantine the buffer behind it.
                self.draining = False
                self.failed = True


BASE_CORE_BYTES = 32
"""Default NI-core serialisation bandwidth per base cycle.

The paper's NI (Figure 8) serialises one packet at a time through the
core logic before it reaches an injection buffer.  The L2/MC datapath
behind a CB moves half a cache line per cycle (32 B), so a multi-buffer
NI can keep two full-width links busy; a single-buffer NI remains
drain-limited to one flit per cycle regardless.  DA2Mesh's CB NIs
override this with the base link width (16 B): its eight subnets split
one 128-bit interface, they do not widen it.
"""


class SerializationCore:
    """The one-packet-at-a-time serialiser inside an NI (or a CB's NIs)."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0

    def reserve(self, now: int, size: int, rate: float) -> int:
        """Reserve the core for a packet; returns its start cycle."""
        start = max(self.free_at, now)
        self.free_at = start + max(1, math.ceil(size / rate))
        return start


class NetworkInterface:
    """Base NI: unbounded source queue feeding one local buffer."""

    __slots__ = ("network", "node", "source_queue", "buffers", "core",
                 "core_rate", "_net_index")

    def __init__(
        self,
        network: Network,
        node: int,
        core: Optional[SerializationCore] = None,
        core_bytes: int = BASE_CORE_BYTES,
    ) -> None:
        self.network = network
        self.node = node
        self.source_queue: Deque[Packet] = deque()
        self.buffers: List[InjectionBuffer] = [InjectionBuffer(network, node)]
        self._init_core(core, core_bytes)
        self._register()

    def _init_core(self, core: Optional[SerializationCore],
                   core_bytes: int = BASE_CORE_BYTES) -> None:
        self.core = core or SerializationCore()
        net = self.network
        # Flits (of this network's width) the core produces per local
        # cycle.  May be fractional: a 16 B/cycle core feeds a 32 B-flit
        # overlay at half a flit per cycle.
        self.core_rate = core_bytes / net.flit_bytes / net.clock_ratio

    def _register(self) -> None:
        self.network.register_ni(self)
        for buf in self.buffers:
            buf.ni = self
            self.network.upstream[(buf.target_node, buf.target_port)] = buf.link

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Accept a packet from the node's core logic."""
        packet.created = self.network.cycle
        self.network.stats.packets_created += 1
        self.source_queue.append(packet)
        self.network.wake_ni(self)

    def has_work(self) -> bool:
        """Whether ticking this NI this cycle could have any effect.

        A credit-stalled buffer does not count: its try_send is a no-op
        until the blocking credit returns, and that return re-arms the
        NI through the link's waker.  A queued packet counts only while
        some buffer could accept it.
        """
        queue = self.source_queue
        for buf in self.buffers:
            if buf.flits:
                if not buf.stalled:
                    return True
            elif queue and not buf.failed:
                return True
        return False

    def tick(self, cycle: int) -> None:
        if self.source_queue:
            self._assign(cycle)
        for buf in self.buffers:
            if buf.flits and not buf.stalled:
                buf.try_send(cycle)

    def _load(self, buf: InjectionBuffer, packet: Packet, cycle: int) -> None:
        start = self.core.reserve(cycle, packet.size, self.core_rate)
        buf.load(packet, start, self.core_rate)

    def _assign(self, cycle: int) -> None:
        for buf in self.buffers:
            if not self.source_queue:
                return
            if buf.available:
                self._load(buf, self.source_queue.popleft(), cycle)

    def idle(self) -> bool:
        return not self.source_queue and all(b.free for b in self.buffers)

    def backlog(self) -> int:
        """Packets waiting in the source queue (not yet in a buffer)."""
        return len(self.source_queue)

    def pressure(self) -> int:
        """Backlog plus occupied buffers: how loaded this NI looks."""
        return len(self.source_queue) + sum(
            1 for b in self.buffers if not b.free
        )

    def buffer_occupancy(self) -> int:
        """Flits currently sitting in this NI's injection buffers."""
        return sum(len(b.flits) for b in self.buffers)

    def register_telemetry(self, registry: "object", prefix: str) -> None:
        """Register per-NI probes (base NIs are covered by the network's
        aggregate series; EquiNox NIs add per-EIR breakdowns)."""


class MultiPortInterface(NetworkInterface):
    """NI with ``k`` buffers, each on its own port of the local router."""

    __slots__ = ()

    def __init__(
        self,
        network: Network,
        node: int,
        num_ports: int = 4,
    ) -> None:
        self.network = network
        self.node = node
        self.source_queue = deque()
        self.buffers = [InjectionBuffer(network, node) for _ in range(num_ports)]
        self._init_core(None)
        self._register()


class EquiNoxInterface(NetworkInterface):
    """The paper's five-buffer CB NI with shortest-path buffer selection.

    Buffer 0 targets the local router; buffers 1..n target the CB's
    EIRs over one-cycle interposer links.  A packet is steered to a
    shortest-path EIR buffer (round-robin when two qualify), falling
    back to the local buffer, else stalling — Buffer Selection 1.
    """

    __slots__ = ("_eir_buffer", "num_idle_buffers", "_choices", "_rr")

    def __init__(
        self,
        network: Network,
        node: int,
        design: EirDesign,
    ) -> None:
        self.network = network
        self.node = node
        self.source_queue = deque()
        grid = network.grid
        group = design.group_by_cb[node]
        self.buffers = [InjectionBuffer(network, node)]
        self._eir_buffer: Dict[int, int] = {}  # eir node -> buffer index
        for eir in group.nodes:
            buf = InjectionBuffer(
                network,
                eir,
                interposer=True,
                length=float(grid.hops(node, eir)),
            )
            self._eir_buffer[eir] = len(self.buffers)
            self.buffers.append(buf)
        # Pad to the uniform five-buffer layout (idle ports, Figure 8).
        self.num_idle_buffers = 5 - len(self.buffers)
        self._init_core(None)
        self._register()
        # Precompute destination -> candidate EIR buffer indices.
        self._choices: Dict[int, Tuple[int, ...]] = {}
        for dst in grid.nodes():
            if dst == node:
                continue
            eirs = shortest_path_eirs(grid, design, node, dst)
            self._choices[dst] = tuple(self._eir_buffer[e] for e in eirs)
        # One round-robin pointer per candidate set.  A single pointer
        # advanced modulo the transient free-list length biases EIR
        # choice whenever candidate sets differ per destination.
        self._rr: Dict[Tuple[int, ...], int] = {}

    def register_telemetry(self, registry: "object", prefix: str) -> None:
        """Per-EIR injected flits plus this CB's backlog, over time.

        ``eir.cb<N>.local`` is buffer 0 (the CB's own router);
        ``eir.cb<N>.eir<M>`` are the interposer-linked EIR buffers.
        The final counters carry the end-of-run totals; the series
        carry the cumulative counts over time (injection-balance
        trajectories, Figures 4/7).
        """
        cb = self.node
        labels = {0: f"eir.cb{cb}.local"}
        for eir, index in self._eir_buffer.items():
            labels[index] = f"eir.cb{cb}.eir{eir}"
        for index, label in sorted(labels.items()):
            buf = self.buffers[index]
            registry.register_series(
                f"{label}.flits_sent",
                lambda buf=buf: buf.flits_sent,
            )
            registry.register_final(
                f"{label}.flits_sent", lambda buf=buf: buf.flits_sent
            )
        registry.register_series(
            f"eir.cb{cb}.backlog", lambda: len(self.source_queue)
        )

    def _assign(self, cycle: int) -> None:
        # Head-of-line policy: the NI core processes one packet at a
        # time; if no eligible buffer is free the packet retries next
        # cycle (it does not bypass to a later packet).
        while self.source_queue:
            packet = self.source_queue[0]
            buf_idx = self._select_buffer(packet)
            if buf_idx is None:
                return
            self.source_queue.popleft()
            self._load(self.buffers[buf_idx], packet, cycle)

    def _select_buffer(self, packet: Packet) -> Optional[int]:
        """Buffer Selection 1 (paper): shortest-path EIRs, else local.

        Quarantined (failed/draining) buffers are skipped, so a CB with
        failed EIR links re-selects among the survivors and degrades to
        single-injection behaviour when every EIR link is down.
        """
        candidates = self._choices.get(packet.dst, ())
        free = [i for i in candidates if self.buffers[i].available]
        if free:
            if len(free) == 1:
                chosen = free[0]
            else:
                # Rotate over the (stable) candidate tuple, not the
                # transient free list, so ties split evenly per set.
                start = self._rr.get(candidates, 0)
                n = len(candidates)
                chosen = min(
                    free, key=lambda i: (candidates.index(i) - start) % n
                )
            self._rr[candidates] = (
                (candidates.index(chosen) + 1) % len(candidates)
            )
            return chosen
        if self.buffers[0].available:
            return 0
        # All shortest-path EIR buffers busy/failed and the local
        # buffer unavailable: widen to *any* surviving EIR buffer (a
        # non-minimal EIR beats indefinite head-of-line blocking when
        # the preferred injectors are quarantined).
        if any(self.buffers[i].failed for i in range(len(self.buffers))):
            for idx in range(1, len(self.buffers)):
                if idx not in candidates and self.buffers[idx].available:
                    return idx
        return None
