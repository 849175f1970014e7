"""Integration-style tests of the network: delivery, credits, ordering."""

import random

import pytest

from repro.core.grid import Grid
from repro.harness.experiment import ExperimentConfig, build_fabric
from repro.noc import (
    Network,
    NetworkInterface,
    Packet,
    PacketType,
    packet_flits,
    vector,
)
from repro.noc.loops import LoopInterface, ring_loops, routerless_loops
from repro.noc.network import ENGINES, network_class
from repro.settings import hermetic_env


def make_net(width=4, **kwargs):
    kwargs.setdefault("flit_bytes", 16)
    kwargs.setdefault("vc_classes", [(0,), (1,)])
    net = Network("t", Grid(width), **kwargs)
    nis = {n: NetworkInterface(net, n) for n in net.grid.nodes()}
    return net, nis


def send(net, nis, pid, src, dst, ptype=PacketType.READ_REQUEST, vc_class=0):
    size = packet_flits(ptype, net.flit_bytes)
    packet = Packet(pid, ptype, src, dst, size, 0, vc_class=vc_class)
    nis[src].enqueue(packet)
    return packet


def run_until_idle(net, grid_nodes, max_cycles=5000):
    received = []
    for _ in range(max_cycles):
        net.tick()
        for n in grid_nodes:
            while True:
                p = net.pop_delivered(n)
                if p is None:
                    break
                received.append(p)
        if net.idle():
            break
    return received


class TestDelivery:
    def test_single_packet_delivered(self):
        net, nis = make_net()
        packet = send(net, nis, 1, 0, 15)
        received = run_until_idle(net, list(net.grid.nodes()))
        assert received == [packet]
        assert packet.delivered is not None
        assert packet.injected is not None

    def test_latency_at_zero_load_matches_model(self):
        net, nis = make_net(8)
        src, dst = 0, 63
        packet = send(net, nis, 1, src, dst, PacketType.READ_REPLY, 1)
        run_until_idle(net, [dst])
        hops = net.grid.hops(src, dst)
        # Zero-load: 1 cycle NI-core serialisation + 1 cycle NI link +
        # 1 cycle/hop + eject arbitration + sink + (size-1) serialisation.
        assert packet.latency == hops + packet.size + 2

    def test_all_pairs_delivery(self):
        net, nis = make_net(4)
        pid = 0
        expected = set()
        for src in net.grid.nodes():
            for dst in net.grid.nodes():
                if src == dst:
                    continue
                pid += 1
                send(net, nis, pid, src, dst)
                expected.add(pid)
        received = run_until_idle(net, list(net.grid.nodes()))
        assert {p.pid for p in received} == expected

    def test_packets_arrive_at_correct_node(self):
        net, nis = make_net(4)
        p1 = send(net, nis, 1, 0, 5)
        p2 = send(net, nis, 2, 3, 12)
        for _ in range(200):
            net.tick()
            if net.idle():
                break
        assert net.pop_delivered(5).pid == 1
        assert net.pop_delivered(12).pid == 2
        assert net.pop_delivered(5) is None

    def test_multi_flit_packet_arrives_whole(self):
        net, nis = make_net()
        packet = send(net, nis, 1, 0, 15, PacketType.READ_REPLY, 1)
        assert packet.size == 5
        received = run_until_idle(net, [15])
        assert received[0] is packet


class TestConservation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_loss_under_load(self, seed):
        net, nis = make_net(8)
        rng = random.Random(seed)
        nodes = list(net.grid.nodes())
        sent = 0
        for _ in range(300):
            for src in nodes:
                if rng.random() < 0.1:
                    dst = rng.choice(nodes)
                    if dst == src:
                        continue
                    sent += 1
                    reply = rng.random() < 0.5
                    send(
                        net, nis, sent, src, dst,
                        PacketType.READ_REPLY if reply
                        else PacketType.READ_REQUEST,
                        1 if reply else 0,
                    )
            net.tick()
        received = run_until_idle(net, nodes, max_cycles=20000)
        drained = len(received)
        # Some packets were consumed during the load loop as well.
        assert net.idle()
        assert net.stats.packets_delivered == sent
        assert drained <= sent

    def test_flit_conservation_counters(self):
        net, nis = make_net(4)
        for pid in range(1, 11):
            send(net, nis, pid, pid % 16, (pid * 7) % 16)
        run_until_idle(net, list(net.grid.nodes()))
        assert net.stats.flits_injected == net.stats.flits_ejected


class TestCredits:
    def test_credits_restored_after_drain(self):
        net, nis = make_net()
        send(net, nis, 1, 0, 15, PacketType.READ_REPLY, 1)
        run_until_idle(net, [15])
        for router in net.routers:
            for port, out in router.outputs.items():
                if port < 4 and port in router.neighbors:
                    for vc, credits in enumerate(out.credits):
                        assert credits == net.vc_capacity
                for vc in range(out.num_vcs):
                    assert out.owner[vc] is None

    def test_eject_credits_returned_on_pop(self):
        net, nis = make_net()
        send(net, nis, 1, 0, 15, PacketType.READ_REPLY, 1)
        for _ in range(100):
            net.tick()
            if net.in_flight() == 0:
                break
        router = net.routers[15]
        eject = router.outputs[router.eject_ports[0]]
        before = eject.credits[0]
        assert before < net.eject_capacity  # packet parked in receive queue
        net.pop_delivered(15)
        assert eject.credits[0] == before + 5

    def test_backpressure_blocks_ejection(self):
        """If nobody consumes at the destination, injection stalls."""
        net, nis = make_net(4)
        dst = 15
        for pid in range(1, 30):
            send(net, nis, pid, 0, dst, PacketType.READ_REPLY, 1)
        for _ in range(400):
            net.tick()
        # Without pops, only eject_capacity worth of flits drained.
        assert not net.idle()
        drained = 0
        for _ in range(5000):
            net.tick()
            while net.pop_delivered(dst):
                drained += 1
            if net.idle():
                break
        assert drained == 29
        assert net.idle()

    def test_add_eject_port_defaults_to_constructed_capacity(self):
        """Regression: extra eject ports once defaulted to 2*vc_capacity,
        ignoring an explicit ``eject_capacity`` at construction."""
        net, _ = make_net(eject_capacity=7)
        router = net.routers[3]
        built = router.outputs[router.eject_ports[0]]
        assert built.capacity == 7
        port = net.add_eject_port(3)
        added = router.outputs[port]
        assert added.capacity == 7
        assert added.credits[0] == 7

    def test_add_eject_port_explicit_capacity_still_honoured(self):
        net, _ = make_net(eject_capacity=7)
        port = net.add_eject_port(0, capacity=11)
        assert net.routers[0].outputs[port].capacity == 11


class TestVcClasses:
    def test_classes_stay_separated_without_monopolize(self):
        net, nis = make_net(4)
        send(net, nis, 1, 0, 15, PacketType.READ_REQUEST, 0)
        send(net, nis, 2, 0, 15, PacketType.READ_REPLY, 1)
        seen_violation = []
        for _ in range(200):
            net.tick()
            for router in net.routers:
                for port in router.input_ports:
                    for vc, ivc in enumerate(router.inputs[port]):
                        for flit in ivc.queue:
                            if vc not in net.vc_classes[flit.packet.vc_class]:
                                seen_violation.append((router.node, port, vc))
            if net.idle():
                break
        assert not seen_violation


class TestHeatmap:
    def test_residence_recorded(self):
        net, nis = make_net(8)
        send(net, nis, 1, 0, 63, PacketType.READ_REPLY, 1)
        run_until_idle(net, [63])
        heat = net.stats.heatmap()
        assert heat.shape == (64,)
        assert heat.sum() > 0


class TestLoopZeroLoad:
    """The zero-load model on loop lanes, with hops read from the table.

    ``_deliver`` books ``hops + size + 2`` as a packet's non-queuing
    latency, where ``hops`` is the forward distance along its lane
    (``LoopTable.hops``), not the mesh distance.  A lone packet must
    take exactly that long — every ordered pair, both packet sizes, on
    both engines (the SoA armed throughout) — and be booked with no
    queuing and no clamp.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", [ring_loops, routerless_loops],
                             ids=["ring", "routerless"])
    def test_lone_packets_meet_the_model(self, make, engine):
        grid = Grid(6)
        net = network_class(engine)(
            "loop", grid, 16, vc_classes=[(0,)], loops=make(grid)
        )
        nis = {n: LoopInterface(net, n) for n in grid.nodes()}
        table = net.loop_table
        wrong = []
        pid = 0
        with vector.arming(0, 0):
            for src in grid.nodes():
                for dst in grid.nodes():
                    for ptype in (PacketType.READ_REQUEST,
                                  PacketType.READ_REPLY):
                        if src == dst:
                            continue
                        pid += 1
                        packet = send(net, nis, pid, src, dst, ptype)
                        while net.pop_delivered(dst) is None:
                            net.tick()
                        hops = table.hops(packet.lane, src, dst)
                        if packet.latency != hops + packet.size + 2:
                            wrong.append((src, dst, ptype, packet.latency))
                        while not net.quiescent():
                            net.tick()
        assert wrong == []
        assert net.stats.packets_delivered == pid == 2 * 36 * 35
        for acc in net.stats.latency.values():
            assert (acc.queuing, acc.clamped) == (0, 0)
        if engine == "vector":
            assert (net.arms, net.disarms) == (1, 0)


class TestEirZeroLoad:
    """The zero-load model through EquiNox's EIRs.

    A reply a CB injects through an EIR enters the mesh at
    ``inject_router``, so ``_deliver`` counts hops from there.  A lone
    reply must take exactly ``hops + size + 2`` cycles for every
    (CB, PE) pair and both reply sizes, on both engines, over the local
    path and the EIR path alike, with no queuing and no clamp booked.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lone_replies_meet_the_model(self, engine):
        config = ExperimentConfig(width=6, num_cbs=5, mcts_iterations=40,
                                  engine=engine)
        with hermetic_env():
            fabric = build_fabric("EquiNox", config)
        net, grid = fabric.reply_net, fabric.grid
        wrong = []
        sent = via_eir = 0
        with vector.arming(0, 0):
            for cb in fabric.placement:
                for pe in fabric.pes:
                    for ptype in (PacketType.WRITE_REPLY,
                                  PacketType.READ_REPLY):
                        sent += 1
                        packet = fabric.send_reply(cb, pe, ptype, None)
                        while net.pop_delivered(pe) is None:
                            fabric.tick()
                        inject = packet.inject_router
                        via_eir += inject != cb
                        model = grid.hops(inject, pe) + packet.size + 2
                        if packet.latency != model:
                            wrong.append((cb, pe, ptype, packet.latency))
                        while not all(n.quiescent()
                                      for n, _r, _role in fabric.networks):
                            fabric.tick()
        assert wrong == []
        assert net.stats.packets_delivered == sent == 2 * 5 * 31
        assert 0 < via_eir < sent  # both injection paths taken
        for acc in net.stats.latency.values():
            assert (acc.queuing, acc.clamped) == (0, 0)
        if engine == "vector":
            assert (net.arms, net.disarms) == (1, 0)


class TestMeshZeroLoad:
    """The zero-load model on the plain mesh of every non-EIR scheme.

    A lone reply from every CB to every PE (both reply sizes), and a
    lone request from every PE back to every CB (both request sizes),
    must take exactly ``hops + size + 2`` cycles of the network that
    carries it, with no queuing and no clamp booked.  DA2Mesh's reply
    subnets run at 2.5x the base clock, so their replies are timed in
    subnet cycles.  Interposer-CMesh is left out: its overlay and base
    mesh paths are not exact at zero load yet (ROADMAP item 16).
    """

    @pytest.mark.parametrize("scheme", [
        "SingleBase", "VC-Mono", "SeparateBase", "DA2Mesh", "MultiPort",
    ])
    def test_lone_packets_meet_the_model(self, scheme):
        config = ExperimentConfig(width=6, num_cbs=5, engine="object")
        with hermetic_env():
            fabric = build_fabric(scheme, config)
        grid = fabric.grid
        wrong = []
        sent = 0

        def tick_until(done):
            for _ in range(500):
                if done():
                    return
                fabric.tick()
            raise AssertionError("fabric did not settle in 500 cycles")

        def lone(packet, pop, dst):
            """Tick until ``packet`` is popped, then until all is quiet."""
            tick_until(lambda: pop(dst) == packet.token)
            if packet.latency != grid.hops(packet.src, dst) + packet.size + 2:
                wrong.append((packet.src, dst, packet.ptype, packet.latency))
            tick_until(lambda: all(
                n.quiescent() for n, _r, _role in fabric.networks
            ))

        for cb in fabric.placement:
            for pe in fabric.pes:
                for ptype in (PacketType.WRITE_REPLY, PacketType.READ_REPLY):
                    sent += 1
                    packet = fabric.send_reply(cb, pe, ptype, sent)
                    lone(packet, fabric.pop_reply, pe)
                for ptype in (PacketType.READ_REQUEST,
                              PacketType.WRITE_REQUEST):
                    sent += 1
                    packet = fabric.send_request(pe, cb, ptype, sent)
                    lone(packet, fabric.pop_request, cb)
        assert wrong == []
        assert sent == 4 * 5 * 31
        delivered = 0
        for net, _ratio, _role in fabric.networks:
            delivered += net.stats.packets_delivered
            for acc in net.stats.latency.values():
                assert (acc.queuing, acc.clamped) == (0, 0)
        assert delivered == sent
