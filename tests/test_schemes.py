"""Tests for scheme configs and the fabric builder."""

import dataclasses
from collections import deque
from pathlib import Path

import pytest

from repro.harness.experiment import (
    ExperimentConfig,
    build_fabric,
    run_with_fabric,
)
from repro.noc import PacketType
from repro.noc.interface import EquiNoxInterface, MultiPortInterface
from repro.noc.network import ENGINES
from repro.schemes import (
    SCHEME_ORDER,
    SchemeConfig,
    SchemeSpec,
    get_config,
    get_spec,
)

LOOP_SCHEMES = ["ring_router", "routerless"]


class TestConfigs:
    def test_all_nine_schemes_exist(self):
        assert SCHEME_ORDER == [
            "SingleBase",
            "VC-Mono",
            "Interposer-CMesh",
            "SeparateBase",
            "DA2Mesh",
            "MultiPort",
            "EquiNox",
            "ring_router",
            "routerless",
        ]

    def test_network_types_match_paper(self):
        """Schemes 1-3 are single-network, 4-7 separate (section 5);
        the loop baselines also run separate request/reply networks."""
        for name in SCHEME_ORDER[:3]:
            assert get_config(name).network_type == "single"
        for name in SCHEME_ORDER[3:]:
            assert get_config(name).network_type == "separate"

    def test_equinox_uses_nqueen(self):
        assert get_config("EquiNox").placement_name == "nqueen"

    def test_others_use_diamond(self):
        for name in SCHEME_ORDER:
            if name != "EquiNox":
                assert get_config(name).placement_name == "diamond"

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            get_config("Mesh2000")

    def test_capability_flags(self):
        for name in SCHEME_ORDER:
            # Fault capability follows from the topology, defined once.
            assert get_config(name).supports_faults == (
                name not in LOOP_SCHEMES
            )
            # Every scheme runs on every engine: not a per-scheme field.
            assert get_spec(name).engines is ENGINES
        fields = {f.name for f in dataclasses.fields(SchemeSpec)}
        assert fields == {"name", "factory"}

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(name="x", network_type="single", equinox=True)
        with pytest.raises(ValueError):
            SchemeConfig(name="x", network_type="single", da2mesh=True)
        with pytest.raises(ValueError):
            SchemeConfig(name="x", network_type="ring")
        # Loop topologies: separate networks only, no overlays/NI
        # variants.
        with pytest.raises(ValueError):
            SchemeConfig(name="x", network_type="single", topology="ring")
        with pytest.raises(ValueError):
            SchemeConfig(
                name="x", network_type="separate", topology="routerless",
                multiport=4,
            )
        with pytest.raises(ValueError):
            SchemeConfig(name="x", network_type="separate", topology="torus")


class TestFabricStructure:
    @pytest.fixture(autouse=True)
    def _cfg(self):
        self.cfg = ExperimentConfig(quota=10, mcts_iterations=20)

    def test_single_base_one_network(self):
        fabric = build_fabric("SingleBase", self.cfg)
        assert len(fabric.networks) == 1
        assert fabric.request_net is fabric.reply_net

    def test_separate_base_two_networks(self):
        fabric = build_fabric("SeparateBase", self.cfg)
        assert len(fabric.networks) == 2
        assert fabric.request_net is not fabric.reply_net

    def test_cmesh_has_overlay(self):
        fabric = build_fabric("Interposer-CMesh", self.cfg)
        assert fabric.cmesh_net is not None
        assert fabric.cmesh_net.grid.size == 16
        assert len(fabric.cmesh_nis) == 64

    def test_da2mesh_has_eight_subnets(self):
        fabric = build_fabric("DA2Mesh", self.cfg)
        assert len(fabric.reply_subnets) == 8
        for subnet in fabric.reply_subnets:
            assert subnet.flit_bytes == 2
            assert subnet.clock_ratio == 2.5

    def test_multiport_nis(self):
        fabric = build_fabric("MultiPort", self.cfg)
        for cb in fabric.placement:
            assert isinstance(fabric.reply_nis[cb], MultiPortInterface)
            assert len(fabric.reply_nis[cb].buffers) == 4
            # Extra request-network ejection ports at CBs.
            router = fabric.request_net.routers[cb]
            assert len(router.eject_ports) == 4

    def test_equinox_nis_and_eir_ports(self):
        fabric = build_fabric("EquiNox", self.cfg)
        design = fabric.equinox_design
        assert design is not None
        total_eirs = 0
        for cb in fabric.placement:
            ni = fabric.reply_nis[cb]
            assert isinstance(ni, EquiNoxInterface)
            total_eirs += len(ni.buffers) - 1
        assert total_eirs == design.num_eirs

    def test_vc_mono_flags(self):
        fabric = build_fabric("VC-Mono", self.cfg)
        net = fabric.request_net
        assert net.routers[0].monopolize
        assert net.monopolize_injection


class TestFabricTraffic:
    @pytest.fixture(autouse=True)
    def _cfg(self):
        self.cfg = ExperimentConfig(quota=10, mcts_iterations=20)

    def _roundtrip(self, scheme):
        fabric = build_fabric(scheme, self.cfg)
        pe = fabric.pes[0]
        cb = fabric.placement[0]
        token = {"id": 1}
        fabric.send_request(pe, cb, PacketType.READ_REQUEST, token)
        got = None
        for _ in range(500):
            fabric.tick()
            got = fabric.pop_request(cb)
            if got is not None:
                break
        assert got is token
        fabric.send_reply(cb, pe, PacketType.READ_REPLY, token)
        back = None
        for _ in range(500):
            fabric.tick()
            back = fabric.pop_reply(pe)
            if back is not None:
                break
        assert back is token
        assert fabric.idle()

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_request_reply_roundtrip(self, scheme):
        self._roundtrip(scheme)

    def test_cmesh_chooser_uses_overlay_for_far_traffic(self):
        fabric = build_fabric("Interposer-CMesh", self.cfg)
        grid = fabric.grid
        cb = fabric.placement[0]
        far_pe = max(fabric.pes, key=lambda n: grid.hops(cb, n))
        near_pe = min(fabric.pes, key=lambda n: grid.hops(cb, n))
        assert fabric._use_cmesh(cb, far_pe)
        assert not fabric._use_cmesh(cb, near_pe)

    def test_da2mesh_round_robin_across_subnets(self):
        fabric = build_fabric("DA2Mesh", self.cfg)
        cb = fabric.placement[0]
        pe = fabric.pes[0]
        packets = [
            fabric.send_reply(cb, pe, PacketType.READ_REPLY, {"i": i})
            for i in range(8)
        ]
        # Packets landed in eight different subnets' NIs.
        backlogs = [ni.backlog() + (0 if ni.buffers[0].free else 1)
                    for ni in fabric.reply_nis[cb]]
        assert sum(backlogs) == 8
        assert max(backlogs) == 1

    @pytest.mark.parametrize("scheme", ["DA2Mesh", "Interposer-CMesh"])
    def test_empty_reply_polls_are_answered_without_a_lookup(self, scheme):
        """``System.run`` pops replies only where and as often as
        ``Fabric.replies_waiting`` says.

        An empty poll never moves ``_da2_pop_rr`` / ``_pop_rr``, so the
        same cell with the counts defeated (every PE tile drained until
        ``pop_reply`` returns None, every cycle) must agree on its
        rotations and fingerprint.
        """
        runs = []
        for defeat in (False, True):
            fabric = build_fabric(scheme, self.cfg)
            assert len(fabric._reply_side) == (8 if scheme == "DA2Mesh" else 2)
            if defeat:
                drain = fabric.pop_reply
                held = {pe: deque() for pe in fabric.pes}

                def drain_every_pe(drain=drain, held=held):
                    for pe, replies in held.items():
                        for reply in iter(lambda pe=pe: drain(pe), None):
                            replies.append(reply)
                    return {pe: len(r) for pe, r in held.items() if r}

                fabric.replies_waiting = drain_every_pe
                fabric.pop_reply = lambda pe, held=held: held[pe].popleft()
            polls = []
            for net, _ratio, _role in fabric.networks:
                real = net.pop_delivered
                net.pop_delivered = (
                    lambda *a, real=real, **kw:
                    polls.append(1) or real(*a, **kw)
                )
            result = run_with_fabric(fabric, "hotspot", self.cfg, scheme)
            rotation = (
                fabric._da2_pop_rr,
                [net._pop_rr for net, _ratio, _role in fabric.networks],
            )
            runs.append((result.stats_fingerprint, result.cycles, rotation,
                         len(polls)))
        assert runs[0][:3] == runs[1][:3]
        assert runs[0][3] < 0.6 * runs[1][3]  # CB request polls included

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_every_reply_pop_returns_a_reply(self, scheme):
        fabric = build_fabric(scheme, self.cfg)
        popped = []
        real = fabric.pop_reply
        fabric.pop_reply = lambda pe: popped.append(real(pe)) or popped[-1]
        result = run_with_fabric(fabric, "hotspot", self.cfg, scheme)
        # One call per transaction's reply, and none came back empty.
        assert len(popped) == result.instructions > 0
        assert None not in popped

    def test_reply_backlog_reporting(self):
        fabric = build_fabric("SeparateBase", self.cfg)
        cb = fabric.placement[0]
        pe = fabric.pes[0]
        for i in range(5):
            fabric.send_reply(cb, pe, PacketType.READ_REPLY, i)
        assert fabric.reply_backlog(cb) == 5


class TestLoopSchemes:
    """Geometry, injection path, delivery accounting and capability
    rails for the loop-topology baselines (ring_router / routerless)."""

    @pytest.fixture(autouse=True)
    def _cfg(self):
        self.cfg = ExperimentConfig(
            width=6, num_cbs=5, quota=10, mcts_iterations=20
        )

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_geometry(self, scheme):
        from repro.noc.loops import verify_loop_cover

        fabric = build_fabric(scheme, self.cfg)
        assert fabric.config.topology in ("ring", "routerless")
        assert len(fabric.networks) == 2
        for net, _ratio, _role in fabric.networks:
            table = net.loop_table
            size = net.grid.size
            assert table.loops and table.nodes == size
            for lane, members in enumerate(table.loops):
                assert table.length[lane] == len(members)
                for i, node in enumerate(members):
                    at = lane * size + node
                    nxt = members[(i + 1) % len(members)]
                    assert table.pos[at] == i
                    assert members[table.nxt[at]] == nxt
                    # Every loop hop is a wired point-to-point link.
                    router = net.routers[node]
                    assert router.neighbors[table.out[at]][0] == nxt
                # Off the lane every column reads -1.
                for node in set(range(size)) - set(members):
                    at = lane * size + node
                    assert table.pos[at] == table.nxt[at] == -1
                    assert table.out[at] == -1
            # Every (src, dst) pair shares at least one loop.
            verify_loop_cover(net.grid, table.loops)
            # The mesh ports stay unwired on a loop topology.
            for router in net.routers:
                assert all(p not in router.neighbors for p in range(4))
            # Injection is pinned to VC 0 (the dateline precondition).
            assert net.vc_classes == [(0,)]

    def test_ring_is_two_counter_rotating_rings(self):
        fabric = build_fabric("ring_router", self.cfg)
        net = fabric.request_net
        loops = net.loop_table.loops
        assert len(loops) == 2
        assert set(loops[0]) == set(range(net.grid.size))
        assert loops[1] == tuple(reversed(loops[0]))

    def test_routerless_loops_are_rectangle_perimeters(self):
        fabric = build_fabric("routerless", self.cfg)
        net = fabric.request_net
        assert len(net.loop_table.loops) > 2
        grid = net.grid
        for lane in net.loop_table.loops:
            xs = [grid.coord(n)[0] for n in lane]
            ys = [grid.coord(n)[1] for n in lane]
            w = max(xs) - min(xs) + 1
            h = max(ys) - min(ys) + 1
            # A rectangle perimeter visits each boundary node once.
            assert len(lane) == len(set(lane)) == 2 * (w + h) - 4

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_injection_path_stamps_lane(self, scheme):
        fabric = build_fabric(scheme, self.cfg)
        pe, cb = fabric.pes[0], fabric.placement[0]
        pkt = fabric.send_request(pe, cb, PacketType.READ_REQUEST, object())
        assert pkt.vc_class == 0
        for _ in range(5):
            fabric.tick()
        assert pkt.lane is not None
        table = fabric.request_net.loop_table
        assert pe in table.loops[pkt.lane] and cb in table.loops[pkt.lane]
        # Wire selection picked a minimal-forward-distance lane.
        size = table.nodes
        assert table.hops(pkt.lane, pe, cb) == min(
            table.hops(lane, pe, cb) for lane in range(len(table.loops))
            if table.pos[lane * size + pe] >= 0
            and table.pos[lane * size + cb] >= 0
        )

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_delivery_accounting(self, scheme):
        from repro.noc.validation import audit_network

        fabric = build_fabric(scheme, self.cfg)
        tokens = {}
        for i, pe in enumerate(fabric.pes[:6]):
            cb = fabric.placement[i % len(fabric.placement)]
            tokens[i] = (pe, cb)
            fabric.send_request(pe, cb, PacketType.READ_REQUEST, i)
        got = set()
        for _ in range(2000):
            fabric.tick()
            for cb in fabric.placement:
                token = fabric.pop_request(cb)
                if token is not None:
                    got.add(token)
            if len(got) == len(tokens):
                break
        assert got == set(tokens)
        assert fabric.idle()
        for net, _ratio, _role in fabric.networks:
            assert audit_network(net).problems == []
            stats = net.stats
            assert stats.packets_created == stats.packets_delivered
            assert stats.flits_injected == stats.flits_ejected

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_fault_plans_rejected_at_arm_time(self, scheme):
        from repro.harness.experiment import run_experiment
        from repro.noc.faults import FaultSpec

        spec = FaultSpec(kind="mesh_link", node=0, peer=1, at_cycle=10)
        cfg = ExperimentConfig(
            width=4, num_cbs=3, quota=4, faults=(spec,)
        )
        with pytest.raises(ValueError, match="fault"):
            run_experiment(scheme, "kmeans", cfg)

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_verify_case_rejects_faults_not_engines(self, scheme):
        from repro.noc.faults import FaultSpec
        from repro.verify.space import VerifyCase

        base = dict(
            scheme=scheme, benchmark="kmeans", width=4, num_cbs=3,
            quota=4, seed=0,
        )
        for engine in ENGINES:
            VerifyCase(engine=engine, **base)  # valid: no faults
        with pytest.raises(ValueError, match="fault"):
            VerifyCase(
                faults=(
                    FaultSpec(
                        kind="mesh_link", node=0, peer=1, at_cycle=9999
                    ),
                ),
                **base,
            )
        # A replayed artifact is outside input: its engine is checked.
        with pytest.raises(ValueError, match="unknown engine"):
            VerifyCase(engine="warp", **base)

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_vector_engine_matches_object(self, scheme):
        from repro.noc import vector

        cfg = ExperimentConfig(width=4, num_cbs=3, quota=4)
        runs = []
        for engine in ENGINES:
            cell = dataclasses.replace(cfg, engine=engine)
            fabric = build_fabric(scheme, cell)
            with vector.arming(0, 0):
                result = run_with_fabric(fabric, "kmeans", cell, scheme)
            for net, _ratio, _role in fabric.networks:
                armed = (net.arms, net.disarms, net.armed_cycles > 0)
                assert armed == ((1, 0, True) if engine == "vector"
                                 else (0, 0, False))
            runs.append((result.stats_fingerprint, result.cycles))
        assert runs[0] == runs[1]

    def test_loop_routing_is_the_table_alone(self):
        """The three hooks and the engine refusal are gone from src/."""
        import repro

        source = "\n".join(
            path.read_text()
            for path in Path(repro.__file__).parent.rglob("*.py")
        )
        for gone in ("route_override", "hop_fn", "loop_vc_fn", "LoopState",
                     "loop_states", "only implemented by the object"):
            assert gone not in source, gone

    @pytest.mark.parametrize("scheme", LOOP_SCHEMES)
    def test_scheduler_differential(self, scheme):
        cfg = ExperimentConfig(
            width=5, num_cbs=4, quota=8, mcts_iterations=10
        )
        runs = [
            run_with_fabric(
                build_fabric(scheme, cfg, scheduler=scheduler),
                "hotspot", cfg, scheme,
            )
            for scheduler in ("active", "dense")
        ]
        assert runs[0].stats_fingerprint == runs[1].stats_fingerprint
        assert runs[0].cycles == runs[1].cycles


class TestLoopDeterminism:
    """Object-engine determinism across serial / parallel / cache-warm
    sweeps for the loop baselines (mirrors TestDeterminism in
    test_runner.py, which covers the mesh schemes)."""

    def test_serial_parallel_and_cache_tiers_bit_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import cache
        from repro.harness.runner import sweep

        cfg = ExperimentConfig(
            width=5, num_cbs=4, quota=6, mcts_iterations=10
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        serial = sweep(LOOP_SCHEMES, ["hotspot"], cfg, jobs=1).results()
        parallel = sweep(LOOP_SCHEMES, ["hotspot"], cfg, jobs=2).results()
        cache.clear()  # memory dropped; disk tier stays warm
        warmed = sweep(LOOP_SCHEMES, ["hotspot"], cfg, jobs=1).results()
        assert set(serial) == set(parallel) == set(warmed)
        for key in serial:
            runs = (serial[key], parallel[key], warmed[key])
            assert len({r.stats_fingerprint for r in runs}) == 1, key
            assert len({r.cycles for r in runs}) == 1, key
            assert runs[0].stats_fingerprint
