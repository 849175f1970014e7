"""Router-level unit tests: arbitration, VC allocation, monopolisation."""


from repro.core.grid import Grid
from repro.noc import Network, NetworkInterface, Packet, PacketType
from repro.noc.routing import NUM_MESH_PORTS, PORT_E, PORT_W
from tests.parking import park


def make_net(monopolize=False, **kwargs):
    kwargs.setdefault("flit_bytes", 16)
    kwargs.setdefault("vc_classes", [(0,), (1,)])
    net = Network("t", Grid(4), monopolize=monopolize, **kwargs)
    nis = {n: NetworkInterface(net, n) for n in net.grid.nodes()}
    return net, nis


class TestStructure:
    def test_mesh_ports_wired(self):
        net, _ = make_net()
        center = net.routers[net.grid.node(1, 1)]
        assert set(center.neighbors) == set(range(NUM_MESH_PORTS))

    def test_boundary_ports_missing(self):
        net, _ = make_net()
        corner = net.routers[0]
        assert len(corner.neighbors) == 2

    def test_injection_port_added_by_ni(self):
        net, nis = make_net()
        router = net.routers[0]
        # mesh inputs + one NI injection port
        assert len(router.input_ports) == NUM_MESH_PORTS + 1

    def test_add_input_port_indices_unique(self):
        net, _ = make_net()
        router = net.routers[5]
        a = router.add_input_port()
        b = router.add_input_port()
        assert a != b
        assert a not in router.outputs
        assert b in router.inputs

    def test_eject_port_present(self):
        net, _ = make_net()
        for router in net.routers:
            assert len(router.eject_ports) == 1
            assert router.eject_ports[0] == NUM_MESH_PORTS


class TestArbitration:
    def test_output_port_serves_one_flit_per_cycle(self):
        """Two packets contending for one link interleave fairly."""
        net, nis = make_net()
        # Both sources on row 0 heading to the same far node: their
        # paths share links.
        a = Packet(1, PacketType.READ_REPLY, 0, 3, 5, 0, vc_class=1)
        b = Packet(2, PacketType.READ_REPLY, 1, 3, 5, 0, vc_class=1)
        nis[0].enqueue(a)
        nis[1].enqueue(b)
        delivered = []
        for _ in range(200):
            net.tick()
            p = net.pop_delivered(3)
            if p:
                delivered.append(p.pid)
            if len(delivered) == 2:
                break
        assert sorted(delivered) == [1, 2]

    def test_vc_held_until_tail(self):
        net, nis = make_net()
        packet = Packet(1, PacketType.READ_REPLY, 0, 3, 5, 0, vc_class=1)
        nis[0].enqueue(packet)
        held_seen = False
        for _ in range(30):
            net.tick()
            router = net.routers[0]
            out = router.outputs[PORT_E]
            if out.owner[1] is not None:
                held_seen = True
            if net.pop_delivered(3):
                break
        assert held_seen
        # After delivery, ownership is released everywhere.
        for router in net.routers:
            for out in router.outputs.values():
                assert all(owner is None for owner in out.owner)

    def test_ports_added_late_are_visited_in_index_order(self):
        """The tick visits occupied inputs in ascending port order.

        Router (1,1) gets injection port 5 from its NI and ports 6 and 7
        afterwards, as EquiNox CB routers and loop routers do.  One-flit
        packets sit at p0 (westbound), p2 (for this node) and at p5 and
        p7, both eastbound in different VCs, so both hold an output VC
        and meet at the switch; p6 stays empty.  The arrivals list
        follows the first request per output (W, ejection, E), and E's
        round-robin pointer, set to 6, picks p7 over p5.
        """
        net, _nis = make_net()
        node = net.grid.node(1, 1)
        router = net.routers[node]
        assert net.add_injection_port(node) == 6
        assert net.add_injection_port(node) == 7
        flits = {}
        for port, dst, vc in ((0, net.grid.node(0, 1), 0), (2, node, 0),
                              (5, net.grid.node(3, 1), 0),
                              (7, net.grid.node(3, 1), 1)):
            packet = Packet(port, PacketType.READ_REQUEST, node, dst, 1, 0,
                            vc_class=vc)
            flits[port] = packet.make_flits()[0]
            park(router, port, vc, flits[port], 1)
        router.outputs[PORT_E].rr = 6
        arrivals, credits = [], []
        assert router.tick(1, arrivals, credits) == 1
        west, east = net.grid.node(0, 1), net.grid.node(2, 1)
        assert arrivals == [
            (west, PORT_E, 0, flits[0]),
            (node, -NUM_MESH_PORTS - 1, 0, flits[2]),
            (east, PORT_W, 1, flits[7]),
        ]
        # Only p0 and p2 have an upstream link to credit.
        assert credits == [
            (net.upstream[(node, 0)], 0), (net.upstream[(node, 2)], 0)
        ]
        assert router.outputs[PORT_E].rr == 0  # (7 + 1) % rr_mod 8
        assert list(router.inputs[5][0].queue) == [flits[5]]


class TestMonopolization:
    def test_disabled_by_default(self):
        net, _ = make_net(monopolize=False)
        router = net.routers[5]
        assert router._borrowable_vcs(1, 1) == ()

    def test_requests_never_borrow(self):
        net, _ = make_net(monopolize=True)
        router = net.routers[5]
        assert router._borrowable_vcs(0, 0) == ()

    def test_replies_borrow_when_router_clear(self):
        net, _ = make_net(monopolize=True)
        router = net.routers[5]
        assert router._borrowable_vcs(1, 1) == (0,)

    def test_no_borrow_from_borrowed_vc(self):
        net, _ = make_net(monopolize=True)
        router = net.routers[5]
        # Packet currently sitting in VC 0 (foreign for class 1).
        assert router._borrowable_vcs(1, 0) == ()

    def test_no_borrow_when_other_class_present(self):
        net, nis = make_net(monopolize=True)
        router = net.routers[net.grid.node(1, 0)]
        assert router._borrowable_vcs(1, 1) == (0,)  # clear: may borrow
        # Park a request flit directly in an input VC.
        req = Packet(1, PacketType.READ_REQUEST, 0, 3, 1, 0, vc_class=0)
        flit = req.make_flits()[0]
        park(router, PORT_W, 0, flit, 1)
        assert router._borrowable_vcs(1, 1) == ()

    def _east_allocation(self, extra):
        """Where a monopolising router sends a reply head ``extra``
        flits longer than a VC when its own-class VC east is taken and
        its foreign VC east is completely empty."""
        net, _ = make_net(monopolize=True)
        router = net.routers[net.grid.node(1, 1)]
        east = router.outputs[PORT_E]
        east.owner[1] = (PORT_W, 0)
        assert east.owner[0] is None and east.credits[0] == east.capacity
        reply = Packet(1, PacketType.READ_REPLY, router.node,
                       net.grid.node(3, 1), east.capacity + extra, 0,
                       vc_class=1)
        park(router, PORT_W, 1, reply.make_flits()[0], 1)
        router.tick(2, [], [])
        ivc = router.inputs[PORT_W][1]
        return ivc.out_port, ivc.out_vc

    def test_reply_of_exactly_vc_capacity_borrows_empty_foreign_vc(self):
        """The fit rule is ``capacity >= size``: a reply that exactly
        fills the borrowed VC may take it, one flit longer may not."""
        assert self._east_allocation(0) == (PORT_E, 0)
        assert self._east_allocation(1) == (None, None)

    def test_vcmono_network_no_class_leak_for_requests(self):
        """Requests stay in their class VCs even with monopolisation."""
        import random

        net, nis = make_net(monopolize=True)
        rng = random.Random(0)
        pid = 0
        for cycle in range(300):
            for src in net.grid.nodes():
                if rng.random() < 0.2:
                    dst = rng.randrange(16)
                    if dst == src:
                        continue
                    pid += 1
                    reply = rng.random() < 0.6
                    ptype = (PacketType.READ_REPLY if reply
                             else PacketType.READ_REQUEST)
                    nis[src].enqueue(
                        Packet(pid, ptype, src, dst, 5 if reply else 1, 0,
                               vc_class=1 if reply else 0)
                    )
            net.tick()
            for router in net.routers:
                for p in router.input_ports:
                    for vc, ivc in enumerate(router.inputs[p]):
                        for flit in ivc.queue:
                            if flit.packet.vc_class == 0:
                                assert vc == 0  # requests never in VC 1
            for n in net.grid.nodes():
                while net.pop_delivered(n):
                    pass

    def test_vcmono_drains_heavy_mixed_traffic(self):
        """No deadlock under saturating mixed traffic (regression for
        the parked-borrower deadlock found during bring-up)."""
        import random

        net, nis = make_net(monopolize=True)
        rng = random.Random(7)
        sent = 0
        for cycle in range(500):
            for src in net.grid.nodes():
                if rng.random() < 0.3:
                    dst = rng.randrange(16)
                    if dst == src:
                        continue
                    sent += 1
                    reply = rng.random() < 0.7
                    ptype = (PacketType.READ_REPLY if reply
                             else PacketType.READ_REQUEST)
                    nis[src].enqueue(
                        Packet(sent, ptype, src, dst, 5 if reply else 1, 0,
                               vc_class=1 if reply else 0)
                    )
            net.tick()
            for n in net.grid.nodes():
                while net.pop_delivered(n):
                    pass
        for _ in range(20000):
            net.tick()
            for n in net.grid.nodes():
                while net.pop_delivered(n):
                    pass
            if net.idle():
                break
        assert net.idle()
        assert net.stats.packets_delivered == sent
