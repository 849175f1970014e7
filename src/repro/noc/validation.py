"""Network conservation audit (debugging, watchdog and test support).

``audit_network`` inspects a live network between ticks and returns an
:class:`AuditReport` describing anything inconsistent:

* **flit conservation** — every flit counted as injected is either
  buffered in a router, in flight on a link, or counted as ejected;
* **packet conservation** — every packet created at an NI is delivered,
  queued at an NI, or in flight;
* **credit conservation** — for *every* link with credit flow control,
  including the NI injection links reachable via ``Network.upstream``
  (the paper's most contended port class) and the ejection links into
  the receive queues: ``capacity == credits + occupancy + in-flight
  flits + in-flight credit returns``;
* **VC-ownership consistency** — output-VC owners and input-VC route
  allocations always point at each other, for router inputs and NI
  injection buffers alike;
* the original structural checks: buffer overflow, ``flit_count``
  drift, and flits parked in VCs their class does not permit;
* **derived tick state** — each router's occupancy bitmask ``occ``
  against its ``port_flits`` and its credit list ``up`` against
  ``Network.upstream``, the two things its tick reads instead.

One audit is a census (where every flit and packet is) plus one walk
per router over its input VCs and outputs, which does the structural,
ownership and credit range checks together.  Link conservation tallies
in-flight flits and returning credits once per link, ejection accounting
groups the census packets by ejection port once, and a problem's label
is formatted only when it is reported.

The simulator never calls any of this on the hot path.  Tests, the
stall dump and the periodic validation mode (``REPRO_VALIDATE``) do.

All invariants hold *between* network ticks; calling the audit from
inside a tick (e.g. a router hook) reports false violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .network import Network
from .types import Packet


@dataclass
class AuditReport:
    """Outcome of one conservation audit of one network."""

    network: str
    cycle: int
    problems: List[str]
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def format(self) -> str:
        head = (
            f"audit[{self.network}] cycle {self.cycle}: "
            + ("healthy" if self.ok else f"{len(self.problems)} violation(s)")
        )
        lines = [head]
        if self.counters:
            lines.append(
                "  counters: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            )
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


class NetworkAuditError(RuntimeError):
    """A periodic audit found conservation violations.

    ``reports`` holds every network's :class:`AuditReport` from the
    failing audit pass (healthy networks included, for context).
    """

    def __init__(self, reports: List[AuditReport], dump: str = "") -> None:
        self.reports = reports
        self.dump = dump
        bad = [r for r in reports if not r.ok]
        message = "\n".join(r.format() for r in bad) or "audit failed"
        if dump:
            message = f"{message}\n{dump}"
        super().__init__(message)


# ----------------------------------------------------------------------
# Census: where every flit (and packet) currently is
# ----------------------------------------------------------------------
@dataclass
class _Census:
    """Per-packet flit locations, gathered in one pass over the network."""

    # pid -> flits in NI buffers, router input queues or link arrivals
    # (everything upstream of an ejection commit).
    in_network: Dict[int, int] = field(default_factory=dict)
    packets: Dict[int, Packet] = field(default_factory=dict)
    buffered: int = 0          # flits in router input VCs
    link_flits: int = 0        # flits scheduled on router/NI links
    sink_flits: int = 0        # flits scheduled into ejection sinks
    ni_flits: int = 0          # flits waiting in NI injection buffers
    source_backlog: int = 0    # packets in NI source queues
    receive_queued: int = 0    # delivered packets awaiting pop


def _take_census(net: Network) -> _Census:
    census = _Census()
    in_network = census.in_network
    packets = census.packets
    for router in net.routers:
        inputs = router.inputs
        for port in router.input_ports:
            for ivc in inputs[port]:
                queue = ivc.queue
                if not queue:
                    continue
                census.buffered += len(queue)
                for flit in queue:
                    packet = flit.packet
                    pid = packet.pid
                    in_network[pid] = in_network.get(pid, 0) + 1
                    packets[pid] = packet
    for _node, port, _vc, flit in net._arrivals:
        packet = flit.packet
        pid = packet.pid
        packets[pid] = packet
        if port < 0:
            census.sink_flits += 1
        else:
            in_network[pid] = in_network.get(pid, 0) + 1
            census.link_flits += 1
    for ni in net.nis:
        census.source_backlog += len(ni.source_queue)
        for buf in ni.buffers:
            for flit in buf.flits:
                packet = flit.packet
                pid = packet.pid
                in_network[pid] = in_network.get(pid, 0) + 1
                packets[pid] = packet
                census.ni_flits += 1
    for queue in net.receive_queues.values():
        census.receive_queued += len(queue)
    return census


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def audit_network(net: Network) -> AuditReport:
    """Full conservation audit of one network (empty problems = healthy)."""
    net.sync_for_inspection()
    census = _take_census(net)
    problems = _walk_routers(net)
    problems.extend(_check_links(net))
    problems.extend(_check_eject_conservation(net, census))
    problems.extend(_check_ni_buffers(net))
    problems.extend(_check_flit_conservation(net, census))
    problems.extend(_check_packet_conservation(net, census))
    problems.extend(_check_scheduler_sets(net))
    stats = net.stats
    counters = {
        "flits_injected": stats.flits_injected,
        "flits_ejected": stats.flits_ejected,
        "flits_buffered": census.buffered,
        "flits_on_links": census.link_flits,
        "flits_to_sink": census.sink_flits,
        "flits_in_ni_buffers": census.ni_flits,
        "packets_created": stats.packets_created,
        "packets_delivered": stats.packets_delivered,
        "ni_backlog": census.source_backlog,
        "receive_queued": census.receive_queued,
        "flits_dropped": stats.flits_dropped,
        "flits_reclaimed": stats.flits_reclaimed,
        "packets_recovered": stats.packets_recovered,
    }
    return AuditReport(
        network=net.name, cycle=net.cycle, problems=problems, counters=counters
    )


# ----------------------------------------------------------------------
# The router walk: structure, ownership and credit ranges
# ----------------------------------------------------------------------
def _walk_routers(net: Network) -> List[str]:
    """One pass over every router's input VCs and outputs.

    Returns each router's structural problems followed by that router's
    ownership problems, router by router, then the credit range
    problems of every output (ejection ports included).  Labels are
    formatted only for a violation.
    """
    problems: List[str] = []
    ranges: List[str] = []
    capacity = net.vc_capacity
    table = net.loop_table
    classes = net.vc_classes
    for router in net.routers:
        node = router.node
        inputs = router.inputs
        outputs = router.outputs
        port_flits = router.port_flits
        check_classes = not router.monopolize
        owned: List[str] = []
        counted = 0
        occupied = 0
        for port in router.input_ports:
            port_counted = 0
            for vc, ivc in enumerate(inputs[port]):
                queue = ivc.queue
                if queue:
                    port_counted += len(queue)
                    if len(queue) > capacity:
                        problems.append(
                            f"router {node} in(p{port},v{vc}) holds "
                            f"{len(queue)} flits > capacity {capacity}"
                        )
                    if check_classes and table is not None:
                        # Loop topologies: VC legality is positional
                        # (the dateline), not class-based.
                        for flit in queue:
                            lane = flit.packet.lane
                            if lane is None:
                                continue
                            want = table.vc(
                                lane, flit.packet.inject_router,
                                table.pos[lane * table.nodes + node],
                            )
                            if vc != want:
                                problems.append(
                                    f"router {node} in(p{port},v{vc}): flit of "
                                    f"lane {lane} off its dateline VC {want}"
                                )
                    elif check_classes:
                        for flit in queue:
                            if vc not in classes[flit.packet.vc_class]:
                                problems.append(
                                    f"router {node} in(p{port},v{vc}): flit of "
                                    f"class {flit.packet.vc_class} in foreign VC"
                                )
                # An empty queue with a route assigned is legitimate: all
                # buffered flits were forwarded while the packet's tail is
                # still in flight on the upstream link.
                out_port, out_vc = ivc.out_port, ivc.out_vc
                if out_port is None:
                    continue
                out = outputs.get(out_port)
                if out_vc is None:
                    owned.append(
                        f"router {node} in(p{port},v{vc}) routed to "
                        f"p{out_port} with no output VC"
                    )
                elif out is None:
                    owned.append(
                        f"router {node} in(p{port},v{vc}) routed to "
                        f"missing output p{out_port}"
                    )
                elif out.owner[out_vc] != (port, vc):
                    owned.append(
                        f"router {node} in(p{port},v{vc}) claims "
                        f"out(p{out_port},v{out_vc}) but owner is "
                        f"{out.owner[out_vc]!r}"
                    )
            counted += port_counted
            if port_counted != port_flits[port]:
                problems.append(
                    f"router {node} port_flits[p{port}] "
                    f"{port_flits[port]} != buffered {port_counted}"
                )
            if port_flits[port]:
                occupied |= 1 << port
        if counted != router.flit_count:
            problems.append(
                f"router {node} flit_count {router.flit_count} != "
                f"buffered {counted}"
            )
        if router.occ != occupied:
            problems.append(
                f"router {node} occ {router.occ:#x} != ports holding "
                f"flits {occupied:#x}"
            )
        for out_port, out in outputs.items():
            owners, credits, limit = out.owner, out.credits, out.capacity
            for vc in range(out.num_vcs):
                owner = owners[vc]
                if owner is not None and (
                    not isinstance(owner, tuple)
                    or len(owner) != 2
                    or owner[0] not in inputs
                ):
                    owned.append(
                        f"router {node} out(p{out_port},v{vc}) has "
                        f"foreign owner {owner!r}"
                    )
                elif owner is not None:
                    ivc = inputs[owner[0]][owner[1]]
                    if ivc.out_port != out_port or ivc.out_vc != vc:
                        owned.append(
                            f"router {node} out(p{out_port},v{vc}) owned by "
                            f"in(p{owner[0]},v{owner[1]}) which is allocated "
                            f"to (p{ivc.out_port},v{ivc.out_vc})"
                        )
                held = credits[vc]
                if held < 0:
                    ranges.append(
                        f"router {node} out(p{out_port},v{vc}) "
                        f"negative credits {held}"
                    )
                if held > limit:
                    ranges.append(
                        f"router {node} out(p{out_port},v{vc}) "
                        f"credits {held} exceed capacity {limit}"
                    )
        problems.extend(owned)
    problems.extend(ranges)
    return problems


# ----------------------------------------------------------------------
# Credit conservation (every link, including NI injection links)
# ----------------------------------------------------------------------
def _check_links(net: Network) -> List[str]:
    """``capacity == credits + buffered + in-flight + returning`` per VC.

    Covers every credit link in the upstream map: router-to-router mesh
    links and the NI injection links.  In-flight flits and returning
    credits are tallied once per link; a label is formatted only for a
    VC that violates.
    """
    arriving: Dict[tuple, Dict[int, int]] = {}
    for node, port, vc, _flit in net._arrivals:
        if port >= 0:
            tally = arriving.setdefault((node, port), {})
            tally[vc] = tally.get(vc, 0) + 1
    returning: Dict[int, Dict[int, int]] = {}
    for link, vc in net._credits:
        tally = returning.setdefault(id(link), {})
        tally[vc] = tally.get(vc, 0) + 1
    problems: List[str] = []
    routers = net.routers
    for key, link in net.upstream.items():
        node, port = key
        downstream = routers[node].inputs.get(port)
        if downstream is None:
            problems.append(
                f"upstream link targets missing input p{port} of router {node}"
            )
            continue
        up = routers[node].up
        if port >= len(up) or up[port] is not link:
            problems.append(
                f"router {node} up[p{port}] is not the upstream link "
                f"into in(p{port})"
            )
        capacity = link.capacity
        credits = link.credits
        flits = arriving.get(key)
        back = returning.get(id(link))
        for vc in range(link.num_vcs):
            held = credits[vc]
            occupancy = len(downstream[vc].queue)
            in_flight = flits.get(vc, 0) if flits else 0
            returns = back.get(vc, 0) if back else 0
            accounted = held + occupancy + in_flight + returns
            if accounted == capacity and 0 <= held <= capacity:
                continue
            label = f"link into router {node} in(p{port},v{vc})"
            if held < 0:
                problems.append(f"{label}: negative credits {held}")
            if held > capacity:
                problems.append(
                    f"{label}: credits {held} exceed capacity {capacity}"
                )
            if accounted != capacity:
                problems.append(
                    f"{label}: credit leak — credits {held} + buffered "
                    f"{occupancy} + in-flight {in_flight} + returning "
                    f"{returns} = {accounted} != capacity {capacity}"
                )
    return problems


def _check_eject_conservation(net: Network, census: _Census) -> List[str]:
    """Ejection-link credits: capacity == credits + consumed slots.

    A slot is consumed from an ejection commit until ``pop_delivered``
    returns the whole packet's worth.  Consumed slots per ejecting
    packet ``p`` equal ``p.size`` minus the flits of ``p`` still
    upstream of the ejection commit (in NI buffers, router queues or on
    links) — this covers partially-ejected wormhole packets exactly.
    """
    # Packets committed to an ejection port but not yet fully in its
    # receive queue (known by a surviving flit), grouped by port once.
    committed: Dict[int, List[tuple]] = {}
    in_network = census.in_network
    for pid, packet in census.packets.items():
        if packet.delivered is None and packet.eject_port is not None:
            committed.setdefault(id(packet.eject_port), []).append(
                (pid, packet.size - in_network.get(pid, 0))
            )
    problems = []
    for router in net.routers:
        for eject in router.eject_ports:
            out = router.outputs[eject]
            queue = net.receive_queues.get((router.node, eject), ())
            consumed = 0
            for packet, _link in queue:
                consumed += packet.size
            pending = committed.get(id(out))
            if pending:
                seen = {packet.pid for packet, _link in queue}
                for pid, slots in pending:
                    if pid not in seen:
                        consumed += slots
            accounted = out.credits[0] + consumed
            if accounted != out.capacity:
                problems.append(
                    f"router {router.node} eject(p{eject}): credit leak — "
                    f"credits {out.credits[0]} + consumed {consumed} = "
                    f"{accounted} != capacity {out.capacity}"
                )
    return problems


def _check_ni_buffers(net: Network) -> List[str]:
    """NI injection buffers: single-packet occupancy and VC ownership."""
    problems = []
    for ni in net.nis:
        for idx, buf in enumerate(ni.buffers):
            flits, cur_vc, owners = buf.flits, buf.cur_vc, buf.link.owner
            found = []
            if buf.failed and (flits or cur_vc is not None):
                found.append(
                    f"quarantined but holds {len(flits)} flit(s), cur_vc {cur_vc}"
                )
            if buf.draining and cur_vc is None:
                found.append("draining without a held VC")
            packets = len({flit.packet.pid for flit in flits})
            if packets > 1:
                found.append(f"flits of {packets} packets")
            if flits and len(flits) > flits[0].packet.size:
                found.append(
                    f"{len(flits)} flits exceed packet size {flits[0].packet.size}"
                )
            if cur_vc is not None and owners[cur_vc] is not buf:
                found.append(f"holds v{cur_vc} but link owner is {owners[cur_vc]!r}")
            found.extend(
                f"link v{vc} owned by buffer whose cur_vc is {cur_vc}"
                for vc in range(buf.link.num_vcs)
                if owners[vc] is buf and cur_vc != vc
            )
            if found:
                label = f"NI {ni.node} buffer {idx} (-> router {buf.target_node})"
                problems.extend(f"{label}: {text}" for text in found)
    return problems


# ----------------------------------------------------------------------
# Conservation checks (network-wide)
# ----------------------------------------------------------------------
def _check_flit_conservation(net: Network, census: _Census) -> List[str]:
    stats = net.stats
    in_flight = census.buffered + census.link_flits
    # ``flits_dropped`` is the fault-injection ledger: flits counted as
    # injected but reclaimed off a failed link.  A reclaimed flit that
    # is later retransmitted is counted as injected again, so the
    # equation stays exact under faults without disabling the audit.
    accounted = in_flight + stats.flits_ejected + stats.flits_dropped
    if stats.flits_injected != accounted:
        return [
            f"flit conservation: injected {stats.flits_injected} != "
            f"buffered {census.buffered} + on-link {census.link_flits} + "
            f"ejected {stats.flits_ejected} + dropped {stats.flits_dropped}"
        ]
    return []


def _check_packet_conservation(net: Network, census: _Census) -> List[str]:
    stats = net.stats
    in_flight_packets = sum(
        1 for pid, p in census.packets.items() if p.delivered is None
    )
    accounted = (
        stats.packets_delivered + census.source_backlog + in_flight_packets
    )
    problems = []
    if stats.packets_created != accounted:
        problems.append(
            f"packet conservation: created {stats.packets_created} != "
            f"delivered {stats.packets_delivered} + NI backlog "
            f"{census.source_backlog} + in flight {in_flight_packets}"
        )
    queued = sum(net._delivered.values())
    if queued != census.receive_queued:
        problems.append(
            f"delivered-count drift: _delivered total {queued} != "
            f"receive-queue occupancy {census.receive_queued}"
        )
    if net._delivered_total != census.receive_queued:
        problems.append(
            f"delivered-total drift: _delivered_total "
            f"{net._delivered_total} != receive-queue occupancy "
            f"{census.receive_queued}"
        )
    return problems


def _check_scheduler_sets(net: Network) -> List[str]:
    """Active-set completeness and minimality (active scheduler only).

    Between ticks the router active set must equal the set of routers
    holding flits, the NI active set must equal the set of NIs with
    pending work, and a router marked ``blocked`` must hold flits none
    of which could move — a missed wake here is exactly the bug class
    that would make the active scheduler diverge from the dense oracle.
    """
    if not net._active_scheduler:
        return []
    problems = []
    with_flits = {r.node for r in net.routers if r.flit_count}
    missing = with_flits - net.active
    stale = net.active - with_flits
    if missing:
        problems.append(
            f"scheduler: routers with flits not in active set: "
            f"{sorted(missing)}"
        )
    if stale:
        problems.append(
            f"scheduler: empty routers left in active set: {sorted(stale)}"
        )
    with_work = {i for i, ni in enumerate(net.nis) if ni.has_work()}
    ni_missing = with_work - net._active_nis
    ni_stale = net._active_nis - with_work
    if ni_missing:
        problems.append(
            f"scheduler: NIs with work not armed: {sorted(ni_missing)}"
        )
    if ni_stale:
        problems.append(
            f"scheduler: workless NIs left armed: {sorted(ni_stale)}"
        )
    # The cheap necessary condition of the sleep mark; a sleeping head
    # that could now *allocate* is the scheduler differential's to catch.
    for router in net.routers:
        if not router.blocked:
            continue
        if not router.flit_count:
            problems.append(
                f"scheduler: empty router {router.node} marked blocked"
            )
        problems.extend(
            f"scheduler: blocked router {router.node} holds a ready flit "
            f"at in(p{port},v{vc})"
            for port in router.input_ports
            for vc, ivc in enumerate(router.inputs[port])
            if ivc.queue and ivc.out_port is not None
            and router.outputs[ivc.out_port].credits[ivc.out_vc] > 0
        )
    return problems
