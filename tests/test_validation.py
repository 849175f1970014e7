"""Tests for the network invariant checker, and invariant fuzzing."""

import random

import pytest

from repro.core.grid import Grid
from repro.noc import MultiPortInterface, Network, NetworkInterface, Packet, PacketType
from repro.noc.validation import (
    AuditReport,
    assert_healthy,
    audit_network,
    check_invariants,
)


def make_net(**kwargs):
    kwargs.setdefault("flit_bytes", 16)
    kwargs.setdefault("vc_classes", [(0,), (1,)])
    net = Network("t", Grid(4), **kwargs)
    nis = {n: NetworkInterface(net, n) for n in net.grid.nodes()}
    return net, nis


class TestChecker:
    def test_fresh_network_healthy(self):
        net, _ = make_net()
        assert check_invariants(net) == []
        assert_healthy(net)

    def test_detects_negative_credits(self):
        net, _ = make_net()
        net.routers[0].outputs[0].credits[0] = -1
        problems = check_invariants(net)
        assert any("negative credits" in p for p in problems)
        with pytest.raises(AssertionError):
            assert_healthy(net)

    def test_detects_credit_overflow(self):
        net, _ = make_net()
        out = net.routers[0].outputs[0]
        out.credits[0] = out.capacity + 3
        assert any("exceed capacity" in p for p in check_invariants(net))

    def test_detects_flit_count_drift(self):
        net, _ = make_net()
        net.routers[5].flit_count = 2
        assert any("flit_count" in p for p in check_invariants(net))

    def test_detects_foreign_vc_flit(self):
        net, _ = make_net()
        router = net.routers[3]
        packet = Packet(1, PacketType.READ_REPLY, 0, 3, 1, 0, vc_class=1)
        flit = packet.make_flits()[0]
        router.accept(0, 0, flit, 1)  # reply flit into the request VC
        assert any("foreign VC" in p for p in check_invariants(net))

    def test_route_without_flits_is_legal(self):
        """Mid-packet: flits forwarded, tail still on the upstream link."""
        net, _ = make_net()
        router = net.routers[2]
        ivc = router.inputs[0][0]
        ivc.out_port = 1
        ivc.out_vc = 0
        router.outputs[1].owner[0] = (0, 0)
        assert check_invariants(net) == []


def run_traffic(net, nis, cycles=25):
    """Put a few multi-flit packets in flight and tick part-way."""
    for pid, (src, dst) in enumerate([(0, 15), (5, 10), (12, 3)], start=1):
        nis[src].enqueue(
            Packet(pid, PacketType.READ_REPLY, src, dst, 5, 0, vc_class=1)
        )
    for _ in range(cycles):
        net.tick()


class TestAuditReport:
    def test_healthy_report_carries_counters(self):
        net, nis = make_net()
        run_traffic(net, nis, cycles=200)
        for n in net.grid.nodes():
            while net.pop_delivered(n):
                pass
        report = audit_network(net)
        assert isinstance(report, AuditReport)
        assert report.ok
        assert report.counters["flits_injected"] == 15
        assert report.counters["packets_created"] == 3
        assert report.counters["packets_delivered"] == 3
        assert "healthy" in report.format()

    def test_violating_report_formats_problems(self):
        net, _ = make_net()
        net.routers[0].outputs[0].credits[0] = -1
        report = audit_network(net)
        assert not report.ok
        assert "violation" in report.format()
        assert any("negative credits" in p for p in report.problems)


class TestConservationAudit:
    """Deliberate corruptions each trip the matching audit check."""

    def test_injection_link_negative_credit_detected(self):
        net, nis = make_net()
        nis[0].buffers[0].link.credits[0] = -1
        problems = check_invariants(net)
        assert any(
            "negative credits" in p and "link into router 0" in p
            for p in problems
        )

    def test_injection_link_credit_leak_detected(self):
        net, nis = make_net()
        nis[7].buffers[0].link.credits[0] -= 1  # steal one credit
        problems = check_invariants(net)
        assert any(
            "credit leak" in p and "link into router 7" in p
            for p in problems
        )

    def test_mesh_link_credit_leak_detected(self):
        net, _ = make_net()
        # Pick a router-to-router link from the upstream map (ports 0..3
        # are the mesh directions; higher input ports are NI injection).
        (node, port), link = next(
            item for item in net.upstream.items() if item[0][1] < 4
        )
        link.credits[0] -= 1
        problems = check_invariants(net)
        assert any(
            "credit leak" in p and f"router {node} in(p{port}" in p
            for p in problems
        )

    def test_eject_credit_leak_detected(self):
        net, _ = make_net()
        router = net.routers[9]
        router.outputs[router.eject_ports[0]].credits[0] -= 1
        problems = check_invariants(net)
        assert any(
            "eject" in p and "credit leak" in p and "router 9" in p
            for p in problems
        )

    def test_flit_conservation_detects_drift(self):
        net, nis = make_net()
        run_traffic(net, nis)
        net.stats.flits_injected += 1
        assert any(
            "flit conservation" in p for p in check_invariants(net)
        )

    def test_packet_conservation_detects_lost_packet(self):
        net, nis = make_net()
        run_traffic(net, nis)
        # A packet silently vanishing from an NI source queue (or a
        # counter drift) breaks created == delivered + queued + in flight.
        net.stats.packets_created += 1
        assert any(
            "packet conservation" in p for p in check_invariants(net)
        )

    def test_delivered_count_drift_detected(self):
        net, nis = make_net()
        run_traffic(net, nis, cycles=200)
        # Remove a delivered packet from its receive queue without going
        # through pop_delivered: the per-node counter now disagrees.
        queue = next(q for q in net.receive_queues.values() if q)
        queue.popleft()
        assert any(
            "delivered-count drift" in p for p in check_invariants(net)
        )

    def test_orphan_output_owner_detected(self):
        net, _ = make_net()
        net.routers[4].outputs[1].owner[0] = (0, 0)
        problems = check_invariants(net)
        assert any("owned by in(p0,v0)" in p for p in problems)

    def test_ni_buffer_ownership_detected(self):
        net, nis = make_net()
        nis[3].buffers[0].cur_vc = 0  # claims a VC it never allocated
        problems = check_invariants(net)
        assert any(
            "NI 3" in p and "link owner" in p for p in problems
        )

    def test_blocked_mark_on_an_empty_router_detected(self):
        net, _ = make_net()
        net.routers[6].blocked = True
        assert any(
            "empty router 6 marked blocked" in p
            for p in check_invariants(net)
        )
        # The dense oracle never reads the mark; nor does its audit.
        dense, _ = make_net(scheduler="dense")
        dense.routers[6].blocked = True
        assert check_invariants(dense) == []

    def test_blocked_mark_over_a_ready_flit_detected(self):
        net, _ = make_net()
        router = net.routers[5]
        packet = Packet(1, PacketType.READ_REPLY, 4, 7, 5, 0, vc_class=1)
        for flit in packet.make_flits():
            router.accept(1, 1, flit, 1)
        net.active.add(5)
        net.tick()
        # Mid-packet: the head left, and the four flits behind it hold
        # its route and a downstream credit, so the router may not
        # sleep (and did not mark itself).
        assert router.flit_count == 4 and not router.blocked
        assert not any("blocked" in p for p in check_invariants(net))
        router.blocked = True
        assert any(
            "blocked router 5 holds a ready flit at in(p1,v1)" in p
            for p in check_invariants(net)
        )


class TestInvariantsUnderLoad:
    """The checker holds at every cycle of a random run."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_healthy_throughout(self, seed):
        net, nis = make_net()
        rng = random.Random(seed)
        nodes = list(net.grid.nodes())
        pid = 0
        for cycle in range(250):
            for src in nodes:
                if rng.random() < 0.15:
                    dst = rng.choice(nodes)
                    if dst == src:
                        continue
                    pid += 1
                    reply = rng.random() < 0.5
                    nis[src].enqueue(Packet(
                        pid,
                        PacketType.READ_REPLY if reply
                        else PacketType.READ_REQUEST,
                        src, dst, 5 if reply else 1, 0,
                        vc_class=1 if reply else 0,
                    ))
            net.tick()
            if cycle % 10 == 0:
                assert_healthy(net)
            for n in nodes:
                while net.pop_delivered(n):
                    pass
        assert_healthy(net)

    def test_multiport_and_extra_eject_ports_stay_healthy(self):
        """The audit covers k-port NIs and added ejection ports too."""
        net = Network("t", Grid(4), flit_bytes=16, vc_classes=[(0,), (1,)])
        nis = {}
        for n in net.grid.nodes():
            if n % 4 == 0:
                nis[n] = MultiPortInterface(net, n, num_ports=2)
            else:
                nis[n] = NetworkInterface(net, n)
        net.add_eject_port(5)
        rng = random.Random(7)
        nodes = list(net.grid.nodes())
        pid = 0
        for cycle in range(200):
            for src in nodes:
                if rng.random() < 0.2:
                    dst = rng.choice(nodes)
                    if dst == src:
                        continue
                    pid += 1
                    nis[src].enqueue(Packet(
                        pid, PacketType.READ_REPLY, src, dst, 5, 0,
                        vc_class=1,
                    ))
            net.tick()
            if cycle % 10 == 0:
                assert_healthy(net)
            for n in nodes:
                while net.pop_delivered(n):
                    pass
        assert_healthy(net)
