"""Property-based tests over the simulator's core invariants."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import hotzone
from repro.core.eir import EirDesign, candidate_positions, enumerate_groups
from repro.core.grid import Grid
from repro.core.nqueen import is_valid_solution, sample_solutions
from repro.noc import Network, NetworkInterface, Packet, PacketType
from repro.physical import geometry, interposer


SLOW = settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestNetworkProperties:
    @SLOW
    @given(
        seed=st.integers(0, 10**6),
        rate=st.floats(0.02, 0.25),
        width=st.sampled_from([3, 4, 5]),
        routing=st.sampled_from(["xy", "oddeven"]),
    )
    def test_conservation_and_quiescence(self, seed, rate, width, routing):
        """Any random traffic drains completely with no lost packets."""
        net = Network(
            "p", Grid(width), flit_bytes=16,
            vc_classes=[(0,), (1,)], routing_algorithm=routing,
        )
        nis = {n: NetworkInterface(net, n) for n in net.grid.nodes()}
        rng = random.Random(seed)
        nodes = list(net.grid.nodes())
        sent = 0
        for _ in range(120):
            for src in nodes:
                if rng.random() < rate:
                    dst = rng.choice(nodes)
                    if dst == src:
                        continue
                    sent += 1
                    reply = rng.random() < 0.5
                    net_packet = Packet(
                        sent,
                        PacketType.READ_REPLY if reply
                        else PacketType.READ_REQUEST,
                        src, dst, 5 if reply else 1, 0,
                        vc_class=1 if reply else 0,
                    )
                    nis[src].enqueue(net_packet)
            net.tick()
            for n in nodes:
                while net.pop_delivered(n):
                    pass
        for _ in range(20000):
            net.tick()
            for n in nodes:
                while net.pop_delivered(n):
                    pass
            if net.idle():
                break
        assert net.idle()
        assert net.stats.packets_delivered == sent
        assert net.stats.flits_injected == net.stats.flits_ejected

    @SLOW
    @given(seed=st.integers(0, 10**6))
    def test_latency_never_below_zero_load(self, seed):
        """Measured latency >= the zero-load bound for every packet."""
        net = Network("p", Grid(4), flit_bytes=16, vc_classes=[(0,), (1,)])
        nis = {n: NetworkInterface(net, n) for n in net.grid.nodes()}
        rng = random.Random(seed)
        packets = []
        for pid in range(1, 30):
            src, dst = rng.sample(range(16), 2)
            p = Packet(pid, PacketType.READ_REPLY, src, dst, 5, 0, vc_class=1)
            packets.append(p)
            nis[src].enqueue(p)
        for _ in range(3000):
            net.tick()
            for n in net.grid.nodes():
                while net.pop_delivered(n):
                    pass
            if net.idle():
                break
        for p in packets:
            inj = p.inject_router if p.inject_router is not None else p.src
            zero_load = net.grid.hops(inj, p.dst) + p.size + 2
            assert p.latency >= zero_load


class TestNQueenProperties:
    @settings(deadline=None, max_examples=10)
    @given(n=st.integers(6, 12), seed=st.integers(0, 100))
    def test_sampled_solutions_always_valid(self, n, seed):
        for cols in sample_solutions(n, 3, seed=seed):
            assert is_valid_solution(cols)


class TestHotzoneProperties:
    @settings(deadline=None, max_examples=30)
    @given(nodes=st.sets(st.integers(0, 63), min_size=1, max_size=10))
    def test_overlap_subset_of_hotzones(self, nodes):
        grid = Grid(8)
        placement = tuple(nodes)
        union = set()
        for cb in placement:
            union |= hotzone.hot_zone(grid, cb)
        assert hotzone.overlap_tiles(grid, placement) <= union

    @settings(deadline=None, max_examples=30)
    @given(
        nodes=st.sets(st.integers(0, 63), min_size=2, max_size=8),
        extra=st.integers(0, 63),
    )
    def test_adding_cb_never_reduces_penalty(self, nodes, extra):
        grid = Grid(8)
        placement = tuple(nodes)
        bigger = tuple(set(placement) | {extra})
        assert hotzone.placement_penalty(grid, bigger) >= (
            hotzone.placement_penalty(grid, placement)
        )


class TestGeometryProperties:
    coords = st.tuples(
        st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
        st.integers(0, 7),
    )

    @settings(deadline=None, max_examples=60)
    @given(s1=coords, s2=coords, s3=coords)
    def test_crossing_count_permutation_invariant(self, s1, s2, s3):
        def seg(c):
            return geometry.Segment((float(c[0]), float(c[1])),
                                    (float(c[2]), float(c[3])))

        a = geometry.count_crossings([seg(s1), seg(s2), seg(s3)])
        b = geometry.count_crossings([seg(s3), seg(s1), seg(s2)])
        assert a == b

    @settings(deadline=None, max_examples=40)
    @given(links=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63)).filter(
            lambda t: t[0] != t[1]
        ),
        min_size=1, max_size=8,
    ))
    def test_layer_assignment_always_valid(self, links):
        plan = interposer.plan_links(Grid(8), links)
        for i, j in plan.crossings:
            assert plan.layer_of[i] != plan.layer_of[j]
        assert plan.num_layers >= 1


class TestEirProperties:
    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 1000))
    def test_random_full_designs_are_valid(self, seed):
        """Any rollout-constructed design passes EirDesign validation."""
        grid = Grid(8)
        from repro.core.placement import nqueen_best

        placement = nqueen_best(grid, 8).nodes
        rng = random.Random(seed)
        taken = set()
        groups = []
        for cb in placement:
            options = enumerate_groups(
                cb, candidate_positions(grid, placement, cb),
                taken=frozenset(taken), require_full=True,
            )
            group = rng.choice(options)
            groups.append(group)
            taken.update(group.nodes)
        design = EirDesign(grid=grid, placement=placement,
                           groups=tuple(groups))
        # EIRs never sit on CBs or inside any DAZ.
        forbidden = set(placement)
        for cb in placement:
            forbidden |= hotzone.daz(grid, cb)
        assert not (set(design.eir_nodes) & forbidden)
