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
  drift, and flits parked in VCs their class does not permit.

``check_invariants`` keeps the original list-of-strings interface; the
simulator never calls any of this on the hot path.  Tests, bring-up
scripts, and the periodic validation mode (``REPRO_VALIDATE``) do.

All invariants hold *between* network ticks; calling the audit from
inside a tick (e.g. a router hook) reports false violations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from .network import Network
from .router import Router
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
    in_network: Counter = field(default_factory=Counter)
    # pid -> flits committed to an ejection port, en route to the sink.
    to_sink: Counter = field(default_factory=Counter)
    packets: Dict[int, Packet] = field(default_factory=dict)
    buffered: int = 0          # flits in router input VCs
    link_flits: int = 0        # flits scheduled on router/NI links
    sink_flits: int = 0        # flits scheduled into ejection sinks
    ni_flits: int = 0          # flits waiting in NI injection buffers
    source_backlog: int = 0    # packets in NI source queues
    receive_queued: int = 0    # delivered packets awaiting pop

    def seen(self, pid: int) -> bool:
        return pid in self.packets


def _take_census(net: Network) -> _Census:
    census = _Census()
    for router in net.routers:
        for port in router.input_ports:
            for ivc in router.inputs[port]:
                for flit in ivc.queue:
                    census.in_network[flit.packet.pid] += 1
                    census.packets[flit.packet.pid] = flit.packet
                    census.buffered += 1
    for _node, port, _vc, flit in net._arrivals:
        census.packets[flit.packet.pid] = flit.packet
        if port < 0:
            census.to_sink[flit.packet.pid] += 1
            census.sink_flits += 1
        else:
            census.in_network[flit.packet.pid] += 1
            census.link_flits += 1
    for ni in net.nis:
        census.source_backlog += len(ni.source_queue)
        for buf in ni.buffers:
            for flit in buf.flits:
                census.in_network[flit.packet.pid] += 1
                census.packets[flit.packet.pid] = flit.packet
                census.ni_flits += 1
    for queue in net.receive_queues.values():
        census.receive_queued += len(queue)
    return census


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def audit_network(net: Network, strict_classes: bool = True) -> AuditReport:
    """Full conservation audit of one network (empty problems = healthy)."""
    net.sync_for_inspection()
    census = _take_census(net)
    problems: List[str] = []
    for router in net.routers:
        problems.extend(_check_router(net, router, strict_classes))
        problems.extend(_check_ownership(net, router))
    problems.extend(_check_credits(net, census))
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


def check_invariants(net: Network, strict_classes: bool = True) -> List[str]:
    """Return a list of invariant violations (empty = healthy)."""
    return audit_network(net, strict_classes).problems


def assert_healthy(net: Network, strict_classes: bool = True) -> None:
    """Raise ``AssertionError`` listing all violations, if any."""
    problems = check_invariants(net, strict_classes)
    if problems:
        raise AssertionError(
            f"{len(problems)} network invariant violation(s):\n  "
            + "\n  ".join(problems)
        )


# ----------------------------------------------------------------------
# Structural checks (per router)
# ----------------------------------------------------------------------
def _check_router(net: Network, router: Router,
                  strict_classes: bool) -> List[str]:
    problems = []
    counted = 0
    for port in router.input_ports:
        port_counted = 0
        for vc, ivc in enumerate(router.inputs[port]):
            counted += len(ivc.queue)
            port_counted += len(ivc.queue)
            if len(ivc.queue) > net.vc_capacity:
                problems.append(
                    f"router {router.node} in(p{port},v{vc}) holds "
                    f"{len(ivc.queue)} flits > capacity {net.vc_capacity}"
                )
            # NOTE: an empty queue with a route assigned is legitimate —
            # all buffered flits were forwarded while the packet's tail
            # is still in flight on the upstream link.
            if strict_classes and not router.monopolize:
                if net.loops is not None:
                    # Loop topologies: VC legality is positional (the
                    # dateline), not class-based.
                    expected_vc = net.loop_vc_fn
                    for flit in ivc.queue:
                        if expected_vc is None or flit.packet.lane is None:
                            continue
                        want = expected_vc(flit.packet, router.node)
                        if vc != want:
                            problems.append(
                                f"router {router.node} in(p{port},v{vc}): "
                                f"flit of lane {flit.packet.lane} off its "
                                f"dateline VC {want}"
                            )
                else:
                    for flit in ivc.queue:
                        allowed = net.vc_classes[flit.packet.vc_class]
                        if vc not in allowed:
                            problems.append(
                                f"router {router.node} in(p{port},v{vc}): "
                                f"flit of class {flit.packet.vc_class} in "
                                f"foreign VC"
                            )
        if port_counted != router.port_flits.get(port, 0):
            problems.append(
                f"router {router.node} port_flits[p{port}] "
                f"{router.port_flits.get(port, 0)} != buffered {port_counted}"
            )
    if counted != router.flit_count:
        problems.append(
            f"router {router.node} flit_count {router.flit_count} != "
            f"buffered {counted}"
        )
    return problems


def _check_ownership(net: Network, router: Router) -> List[str]:
    """Output-VC owners and input-VC allocations must point at each other."""
    problems = []
    for port in router.input_ports:
        for vc, ivc in enumerate(router.inputs[port]):
            if ivc.out_port is None:
                continue
            if ivc.out_vc is None:
                problems.append(
                    f"router {router.node} in(p{port},v{vc}) routed to "
                    f"p{ivc.out_port} with no output VC"
                )
                continue
            out = router.outputs.get(ivc.out_port)
            if out is None:
                problems.append(
                    f"router {router.node} in(p{port},v{vc}) routed to "
                    f"missing output p{ivc.out_port}"
                )
            elif out.owner[ivc.out_vc] != (port, vc):
                problems.append(
                    f"router {router.node} in(p{port},v{vc}) claims "
                    f"out(p{ivc.out_port},v{ivc.out_vc}) but owner is "
                    f"{out.owner[ivc.out_vc]!r}"
                )
    for out_port, out in router.outputs.items():
        for vc in range(out.num_vcs):
            owner = out.owner[vc]
            if owner is None:
                continue
            if (
                not isinstance(owner, tuple)
                or len(owner) != 2
                or owner[0] not in router.inputs
            ):
                problems.append(
                    f"router {router.node} out(p{out_port},v{vc}) has "
                    f"foreign owner {owner!r}"
                )
                continue
            ivc = router.inputs[owner[0]][owner[1]]
            if ivc.out_port != out_port or ivc.out_vc != vc:
                problems.append(
                    f"router {router.node} out(p{out_port},v{vc}) owned by "
                    f"in(p{owner[0]},v{owner[1]}) which is allocated to "
                    f"(p{ivc.out_port},v{ivc.out_vc})"
                )
    return problems


# ----------------------------------------------------------------------
# Credit checks (every link, including NI injection links)
# ----------------------------------------------------------------------
def _scheduled_flits_by_dest(net: Network) -> Counter:
    """(node, port, vc) -> flits in flight toward that input VC."""
    counts: Counter = Counter()
    for node, port, vc, _flit in net._arrivals:
        if port >= 0:
            counts[(node, port, vc)] += 1
    return counts


def _scheduled_credits_by_link(net: Network) -> Counter:
    """(id(OutputPort), vc) -> credit returns in flight to that link."""
    counts: Counter = Counter()
    for port, vc in net._credits:
        counts[(id(port), vc)] += 1
    return counts


def _check_credits(net: Network, census: _Census) -> List[str]:
    problems = []
    flits_en_route = _scheduled_flits_by_dest(net)
    credits_en_route = _scheduled_credits_by_link(net)

    # Range checks on every output port, ejection ports included.
    for router in net.routers:
        for port_idx, out in router.outputs.items():
            for vc in range(out.num_vcs):
                credits = out.credits[vc]
                if credits < 0:
                    problems.append(
                        f"router {router.node} out(p{port_idx},v{vc}) "
                        f"negative credits {credits}"
                    )
                if credits > out.capacity:
                    problems.append(
                        f"router {router.node} out(p{port_idx},v{vc}) "
                        f"credits {credits} exceed capacity {out.capacity}"
                    )

    # Range + full conservation over every credit link in the upstream
    # map: router-to-router mesh links and the NI injection links the
    # original checker never audited.
    for (node, port), link in net.upstream.items():
        downstream = net.routers[node].inputs.get(port)
        if downstream is None:
            problems.append(
                f"upstream link targets missing input p{port} of router {node}"
            )
            continue
        for vc in range(link.num_vcs):
            credits = link.credits[vc]
            label = f"link into router {node} in(p{port},v{vc})"
            if credits < 0:
                problems.append(f"{label}: negative credits {credits}")
            if credits > link.capacity:
                problems.append(
                    f"{label}: credits {credits} exceed capacity "
                    f"{link.capacity}"
                )
            occupancy = len(downstream[vc].queue)
            in_flight = flits_en_route.get((node, port, vc), 0)
            returning = credits_en_route.get((id(link), vc), 0)
            accounted = credits + occupancy + in_flight + returning
            if accounted != link.capacity:
                problems.append(
                    f"{label}: credit leak — credits {credits} + buffered "
                    f"{occupancy} + in-flight {in_flight} + returning "
                    f"{returning} = {accounted} != capacity {link.capacity}"
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
    problems = []
    for router in net.routers:
        for eject in router.eject_ports:
            out = router.outputs[eject]
            consumed = 0
            seen: set = set()
            queue = net.receive_queues.get((router.node, eject), ())
            for packet, _link in queue:
                consumed += packet.size
                seen.add(packet.pid)
            # Packets committed to this ejection port but not yet fully
            # in the receive queue (identifiable from any surviving flit).
            for pid, packet in census.packets.items():
                if pid in seen or packet.delivered is not None:
                    continue
                if packet.eject_port is not out:
                    continue
                consumed += packet.size - census.in_network.get(pid, 0)
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
            label = f"NI {ni.node} buffer {idx} (-> router {buf.target_node})"
            if buf.failed and (buf.flits or buf.cur_vc is not None):
                problems.append(
                    f"{label}: quarantined but holds "
                    f"{len(buf.flits)} flit(s), cur_vc {buf.cur_vc}"
                )
            if buf.draining and buf.cur_vc is None:
                problems.append(f"{label}: draining without a held VC")
            pids = {flit.packet.pid for flit in buf.flits}
            if len(pids) > 1:
                problems.append(f"{label}: flits of {len(pids)} packets")
            if buf.flits and len(buf.flits) > buf.flits[0].packet.size:
                problems.append(
                    f"{label}: {len(buf.flits)} flits exceed packet size "
                    f"{buf.flits[0].packet.size}"
                )
            if buf.cur_vc is not None:
                if buf.link.owner[buf.cur_vc] is not buf:
                    problems.append(
                        f"{label}: holds v{buf.cur_vc} but link owner is "
                        f"{buf.link.owner[buf.cur_vc]!r}"
                    )
            for vc in range(buf.link.num_vcs):
                if buf.link.owner[vc] is buf and buf.cur_vc != vc:
                    problems.append(
                        f"{label}: link v{vc} owned by buffer whose "
                        f"cur_vc is {buf.cur_vc}"
                    )
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
