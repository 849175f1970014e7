"""Stall diagnostics: structured dumps and the periodic validator.

When a simulation hangs, the worst possible outcome is a 400k-cycle
timeout with no explanation.  This module turns a hang into a located
report:

* :func:`network_dump` renders one network's live state — per-router
  occupancy, VC allocations and owners, oldest-flit age, NI backlogs,
  the conservation-audit report, and the oldest stuck packet's current
  position (plus its full event trace when a tracer is attached);
* :func:`stall_dump` does that for every network of a fabric;
* :class:`Validator` is the harness-side driver: armed via
  ``REPRO_VALIDATE`` / ``--validate``, it audits every network every
  ``interval`` cycles (raising :class:`NetworkAuditError` on the first
  violation) and keeps an auto-attached :class:`PacketTracer` per
  network, pruned of delivered packets so only in-flight history is
  retained for the watchdog dump.

Nothing here runs when validation is disabled: the simulator's hot
loop pays a single ``is None`` test per cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from . import routing
from .network import Network
from .router import Router
from .tracer import PacketTracer
from .types import Packet
from .validation import AuditReport, NetworkAuditError, audit_network

DEFAULT_AUDIT_INTERVAL = 512
"""Cycles between periodic audits when ``REPRO_VALIDATE=1``."""

def resolve_validate_interval(value: int) -> int:
    """Normalise a ``--validate``/``REPRO_VALIDATE`` value to an interval."""
    if value <= 0:
        return 0
    if value == 1:
        return DEFAULT_AUDIT_INTERVAL
    return value


# ----------------------------------------------------------------------
# Locating stuck traffic
# ----------------------------------------------------------------------
def _in_flight_packets(net: Network) -> Dict[int, Packet]:
    """Every undelivered packet with at least one flit in the network."""
    packets: Dict[int, Packet] = {}
    for router in net.routers:
        for port in router.input_ports:
            for ivc in router.inputs[port]:
                for flit in ivc.queue:
                    if flit.packet.delivered is None:
                        packets[flit.packet.pid] = flit.packet
    for _node, _port, _vc, flit in net._arrivals:
        if flit.packet.delivered is None:
            packets[flit.packet.pid] = flit.packet
    for ni in net.nis:
        for buf in ni.buffers:
            for flit in buf.flits:
                packets[flit.packet.pid] = flit.packet
    return packets


def oldest_stuck_packet(net: Network) -> Optional[Packet]:
    """The in-flight packet that has been waiting longest (by creation)."""
    packets = _in_flight_packets(net)
    if not packets:
        return None
    return min(packets.values(), key=lambda p: (p.created, p.pid))


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
                count = sum(
                    1 for flit in ivc.queue if flit.packet is packet
                )
                if not count:
                    continue
                where = (
                    f"router {router.node} in(p{port},v{vc}): "
                    f"{count} flit(s)"
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
    tracer: Optional[PacketTracer] = None,
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
        if tracer is not None:
            lines.append(tracer.format_trace(stuck.pid))
    return "\n".join(lines)


def stall_dump(
    networks: Sequence[Network],
    tracers: Optional[Dict[int, PacketTracer]] = None,
    max_routers: int = 16,
) -> str:
    """Diagnostic dump of every network in a fabric (watchdog report)."""
    tracers = tracers or {}
    parts = []
    for net in networks:
        parts.append(
            network_dump(
                net,
                tracer=tracers.get(id(net)),
                max_routers=max_routers,
            )
        )
    return "\n".join(parts)


# ----------------------------------------------------------------------
# The periodic validator
# ----------------------------------------------------------------------
class Validator:
    """Periodic conservation audits plus an auto-attached tracer.

    Created by the system run loop when validation is enabled.  Every
    ``interval`` calls to :meth:`on_cycle`, it audits each network and
    raises :class:`NetworkAuditError` (with the full diagnostic dump
    attached) on the first violation.  With ``trace=True`` each network
    also carries a :class:`PacketTracer` whose delivered packets are
    pruned at every audit, so a later watchdog dump can show the full
    history of the oldest stuck packet.

    Audits are read-only: enabling validation must leave the simulated
    behaviour (and the stats fingerprint) bit-identical.
    """

    def __init__(
        self,
        networks: Sequence[Network],
        interval: int = DEFAULT_AUDIT_INTERVAL,
        trace: bool = True,
        max_trace_packets: int = 65536,
    ) -> None:
        if interval <= 0:
            raise ValueError("audit interval must be positive")
        self.networks = list(networks)
        self.interval = interval
        self.audits = 0
        self.tracers: Dict[int, PacketTracer] = {}
        if trace:
            for net in self.networks:
                self.tracers[id(net)] = PacketTracer(
                    net, max_packets=max_trace_packets
                )

    # ------------------------------------------------------------------
    def on_cycle(self, cycle: int) -> None:
        """Hook called once per harness cycle; audits every interval."""
        if cycle % self.interval:
            return
        self.audit()

    def audit(self) -> List[AuditReport]:
        """Audit every network now; raise on any violation."""
        self.audits += 1
        reports = [audit_network(net) for net in self.networks]
        for tracer in self.tracers.values():
            tracer.prune_delivered()
        if any(not r.ok for r in reports):
            raise NetworkAuditError(reports, dump=self.dump())
        return reports

    def dump(self) -> str:
        """The full diagnostic dump (used by the watchdog on a stall)."""
        return stall_dump(self.networks, self.tracers)
