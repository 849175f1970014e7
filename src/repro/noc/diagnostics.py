"""Stall diagnostics: structured dumps and the periodic audit.

When a simulation hangs, the worst possible outcome is a 400k-cycle
timeout with no explanation.  This module turns a hang into a located
report:

* :func:`network_dump` renders one network's live state — per-router
  occupancy, VC allocations and owners, oldest-flit age, NI backlogs,
  the conservation-audit report, and where each flit of the oldest
  stuck packet sits (and since which cycle);
* :func:`stall_dump` does that for every network of a fabric;
* :func:`audit_networks` is the periodic audit the system run loop
  calls every ``validate_interval`` cycles when ``REPRO_VALIDATE`` /
  ``--validate`` arms it, raising :class:`NetworkAuditError` (with the
  full dump attached) on the first violation.

Everything here only reads network state, so validated and
unvalidated runs stay bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import routing
from .network import Network
from .router import Router
from .types import Packet
from .validation import NetworkAuditError, _take_census, audit_network

DEFAULT_AUDIT_INTERVAL = 512
"""Cycles between periodic audits when ``REPRO_VALIDATE=1``."""


# ----------------------------------------------------------------------
# Locating stuck traffic
# ----------------------------------------------------------------------
def oldest_stuck_packet(net: Network) -> Optional[Packet]:
    """The in-flight packet that has been waiting longest (by creation)."""
    packets = [
        p for p in _take_census(net).packets.values() if p.delivered is None
    ]
    if not packets:
        return None
    return min(packets, key=lambda p: (p.created, p.pid))


def _refusals(router: Router, packet: Packet) -> List[str]:
    """Why each output a waiting head of ``packet`` may request is refused."""
    if packet.dst == router.node:
        ports = (
            router.eject_ports if router.eject_filter is None
            else router.eject_filter(packet)
        )
        allowed: Sequence[int] = (0,)
    elif packet.lane is not None:
        port, vc = router.network.loop_table.route(
            packet.lane, packet.inject_router, router.node
        )
        ports, allowed = (port,), (vc,)
    else:
        src = packet.src if packet.inject_router is None else packet.inject_router
        ports = routing.route_candidates(
            router.grid, router.routing_algorithm, router.node, src, packet.dst
        )
        allowed = router.vc_classes[packet.vc_class]
    lines = []
    for port in ports:
        if port in router.failed_outputs:
            why = "output failed"
        else:
            out = router.outputs[port]
            why = ", ".join(
                f"v{v} owner={out.owner[v]!r} credits={out.credits[v]}"
                for v in allowed
            )
        name = routing.PORT_NAMES.get(port, "port")
        lines.append(f"  candidate {name} out(p{port}): {why}")
    return lines


def locate_packet(net: Network, packet: Packet) -> List[str]:
    """Where every remaining flit of ``packet`` currently sits."""
    lines: List[str] = []
    for router in net.routers:
        for port in router.input_ports:
            for vc, ivc in enumerate(router.inputs[port]):
                mine = [flit for flit in ivc.queue if flit.packet is packet]
                if not mine:
                    continue
                where = (
                    f"router {router.node} in(p{port},v{vc}): "
                    f"{len(mine)} flit(s) since cycle {mine[0].buffered_at}"
                )
                if ivc.out_port is not None:
                    out = router.outputs[ivc.out_port]
                    where += (
                        f", allocated out(p{ivc.out_port},v{ivc.out_vc}) "
                        f"credits={out.credits[ivc.out_vc]}"
                    )
                else:
                    where += ", no output allocated"
                lines.append(where)
                head = ivc.queue[0]
                if ivc.out_port is None and head.is_head and head.packet is packet:
                    lines.extend(_refusals(router, packet))
    for node, port, vc, flit in net._arrivals:
        if flit.packet is packet:
            lines.append(
                f"on link to router {node} p{port}v{vc} "
                f"(arrives cycle {net.cycle + 1})"
            )
    for ni in net.nis:
        for idx, buf in enumerate(ni.buffers):
            count = sum(1 for flit in buf.flits if flit.packet is packet)
            if count:
                lines.append(
                    f"NI {ni.node} buffer {idx}: {count} flit(s) "
                    f"waiting for router {buf.target_node} "
                    f"p{buf.target_port} "
                    f"(vc={buf.cur_vc}, credits={buf.link.credits})"
                )
    return lines


# ----------------------------------------------------------------------
# Dumps
# ----------------------------------------------------------------------
def network_dump(
    net: Network,
    max_routers: int = 16,
    audit: bool = True,
) -> str:
    """A structured diagnostic dump of one network's live state."""
    net.sync_for_inspection()
    lines = [f"=== network {net.name!r} @ cycle {net.cycle} "
             f"(last progress {net.last_progress}) ==="]
    if audit:
        lines.append(audit_network(net).format())

    failed_links = [
        (router.node, port)
        for router in net.routers
        for port in sorted(router.failed_outputs)
    ]
    failed_bufs = [
        (ni.node, idx, "draining" if buf.draining else "failed")
        for ni in net.nis
        for idx, buf in enumerate(ni.buffers)
        if buf.failed or buf.draining
    ]
    if failed_links or failed_bufs:
        lines.append(
            "fault state: "
            + ", ".join(
                [f"router {n} out p{p} failed" for n, p in failed_links]
                + [f"NI {n} buffer {i} {state}"
                   for n, i, state in failed_bufs]
            )
        )

    occupied = [r for r in net.routers if r.flit_count]
    lines.append(
        f"routers with buffered flits: {len(occupied)}/{len(net.routers)}"
    )
    for router in occupied[:max_routers]:
        ages = [
            net.cycle - flit.buffered_at
            for port in router.input_ports
            for ivc in router.inputs[port]
            for flit in ivc.queue
        ]
        lines.append(
            f"  router {router.node}: {router.flit_count} flit(s), "
            f"oldest age {max(ages) if ages else 0}"
        )
        for port in router.input_ports:
            for vc, ivc in enumerate(router.inputs[port]):
                if not ivc.queue and ivc.out_port is None:
                    continue
                head = ivc.queue[0].packet.pid if ivc.queue else "-"
                desc = (
                    f"    in(p{port},v{vc}): {len(ivc.queue)} flit(s), "
                    f"head pid {head}"
                )
                if ivc.out_port is not None:
                    out = router.outputs[ivc.out_port]
                    desc += (
                        f" -> out(p{ivc.out_port},v{ivc.out_vc}) "
                        f"credits={out.credits[ivc.out_vc]} "
                        f"owner={out.owner[ivc.out_vc]!r}"
                    )
                lines.append(desc)
    if len(occupied) > max_routers:
        lines.append(f"  ... {len(occupied) - max_routers} more routers")

    backlogged = [ni for ni in net.nis if ni.backlog() or not ni.idle()]
    if backlogged:
        lines.append("NI backlogs:")
        for ni in backlogged[:max_routers]:
            buffered = sum(len(b.flits) for b in ni.buffers)
            lines.append(
                f"  NI {ni.node}: {ni.backlog()} queued, "
                f"{buffered} flit(s) in buffers"
            )
        if len(backlogged) > max_routers:
            lines.append(f"  ... {len(backlogged) - max_routers} more NIs")

    stuck = oldest_stuck_packet(net)
    if stuck is not None:
        lines.append(
            f"oldest stuck packet: pid {stuck.pid} {stuck.ptype.name} "
            f"{stuck.src}->{stuck.dst} created {stuck.created} "
            f"injected {stuck.injected}"
        )
        for line in locate_packet(net, stuck):
            lines.append(f"  {line}")
    return "\n".join(lines)


def stall_dump(networks: Sequence[Network], max_routers: int = 16) -> str:
    """Diagnostic dump of every network in a fabric (watchdog report)."""
    return "\n".join(
        network_dump(net, max_routers=max_routers) for net in networks
    )


def audit_networks(networks: Sequence[Network]) -> None:
    """Audit every network now; raise on any violation.

    The raised :class:`NetworkAuditError` carries every network's report
    and the full :func:`stall_dump`.
    """
    reports = [audit_network(net) for net in networks]
    if any(not r.ok for r in reports):
        raise NetworkAuditError(reports, dump=stall_dump(networks))
