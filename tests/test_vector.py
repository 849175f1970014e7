"""Object vs vector tick-engine parity: the golden-model contract.

The struct-of-arrays engine (:mod:`repro.noc.vector`) is a performance
path, never a semantic fork: for any configuration — every scheme,
either scheduler, telemetry on or off, fault plans that actually fire —
its ``stats_fingerprint`` must be bit-identical to the per-object
golden model.  These tests pin that contract directly for all nine
schemes, loop-wired networks and the synthetic drivers; the fuzzed side
lives in the verify campaign's dedicated engine-parity property
(:func:`repro.verify.check_engine_parity_case`).

The SoA is occupancy-adaptive and these meshes are far too small to
reach its shipped arming threshold, so every test states its regime:
the parity classes run always-armed (every cycle through the SoA), and
``TestForcedTransitions`` runs thresholds low enough to arm and disarm
many times mid-run.  ``run_case`` picks the regime from ``seed % 3``
(:data:`repro.verify.invariants.ARMING_REGIMES`).
"""

import inspect
import random
import re
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro import settings as repro_settings
from repro.core.grid import Grid
from repro.harness.experiment import ExperimentConfig
from repro.noc import routing, vector
from repro.noc.faults import FaultInjector, FaultPlan, FaultSpec
from repro.noc.interface import NetworkInterface
from repro.noc.loops import LoopInterface, ring_loops
from repro.noc.network import Network, network_class, resolve_engine
from repro.noc.router import Router
from repro.noc.types import Packet, PacketType, packet_flits
from repro.noc.validation import audit_network
from repro.noc.vector import VectorNetwork
from repro.schemes import SCHEME_ORDER, get_config
from repro.verify import (
    FAST,
    KNOWN_PROPERTIES,
    PROPERTY_ENGINE_PARITY,
    VerifyCase,
    engine_counterpart,
    run_case,
)
from repro.verify.invariants import ARMING_REGIMES
from repro.verify.strategies import cases
from repro.workloads.synthetic import run_uniform

# seed % 3 == 0: run_case keeps the SoA armed from the first tick.
QUICK = dict(benchmark="backprop", width=4, num_cbs=3, quota=3, seed=6)
# seed % 3 == 1: the forced arm/disarm regime.
THRASH = dict(QUICK, seed=7)
# Loop topologies reject fault plans, so the firing-faults parity tests
# range over the fault-capable mesh schemes; the rest take every scheme.
FAULT_SCHEMES = [
    s for s in SCHEME_ORDER if get_config(s).supports_faults
]

#: A plan that demonstrably fires inside every QUICK-sized run: a
#: transient mesh-link fault plus an NI-buffer fault, both healing well
#: before the run ends so liveness holds.
FIRING_PLAN = (
    FaultSpec(kind="mesh_link", node=0, peer=1, at_cycle=40,
              heal_cycle=140),
    FaultSpec(kind="ni_buffer", node=2, buffer=0, net="any", at_cycle=60,
              heal_cycle=160),
)


def _assert_parity(case: VerifyCase):
    """Run ``case`` under both engines; return ``(object, vector)`` runs."""
    base = run_case(case, validate_every=0)
    ticks = Counter()
    fault_ticks = defaultdict(set)
    real_tick = VectorNetwork.tick
    real_invalidate = VectorNetwork.soa_invalidate

    def tick(net):
        ticks[net] += 1
        real_tick(net)

    def soa_invalidate(net):
        fault_ticks[net].add(ticks[net])
        real_invalidate(net)

    with mock.patch.object(VectorNetwork, "tick", tick), \
            mock.patch.object(VectorNetwork, "soa_invalidate",
                              soa_invalidate):
        twin = run_case(engine_counterpart(case), validate_every=0)
    assert twin.stats_fingerprint == base.stats_fingerprint, case.label()
    for net in _networks(twin):
        # Always-armed: no tick slipped through the object path
        # (fast-forwarded cycles are ticked by neither engine).  The
        # only disarms are the fault injector's — one per fire/heal,
        # events landing between the same two ticks sharing one — and
        # the very next tick re-arms.
        assert net.armed_cycles == ticks[net] > 0, case.label()
        assert net.disarms == len(fault_ticks[net] - {0}), case.label()
        assert net.arms == net.disarms + 1, case.label()
    return base, twin


def _networks(run, role=None):
    return [
        net for net, _ratio, net_role in run.fabric.networks
        if role is None or net_role == role
    ]


class TestEngineSelection:
    def test_resolve_engine_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert repro_settings.resolve(ExperimentConfig()).engine == ""
        assert resolve_engine() == "object"
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert repro_settings.resolve(ExperimentConfig()).engine == "vector"
        assert resolve_engine() == "object"  # the edge reads it, not noc/
        explicit = ExperimentConfig(engine="object")
        assert repro_settings.resolve(explicit) is explicit  # explicit arg wins
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ValueError, match="REPRO_ENGINE unknown engine"):
            repro_settings.resolve(ExperimentConfig())

    def test_network_class_dispatch(self):
        assert network_class("object") is Network
        assert network_class(None) is Network
        assert network_class("vector") is VectorNetwork
        assert issubclass(VectorNetwork, Network)
        assert VectorNetwork.engine == "vector"
        assert Network.engine == "object"

    def test_engine_threads_from_cli_to_fabric(self):
        from repro.cli import build_parser
        from repro.harness.experiment import build_fabric

        args = build_parser().parse_args(
            ["run", "--scheme", "SingleBase", "--engine", "vector"]
        )
        assert args.engine == "vector"
        case = VerifyCase(scheme="SingleBase", engine="vector", **QUICK)
        cfg = case.experiment_config()
        assert cfg.engine == "vector"
        fabric = build_fabric("SingleBase", cfg)
        assert fabric.engine == "vector"
        for net, _ratio, _role in fabric.networks:
            assert isinstance(net, VectorNetwork)


class TestOneAllocationPolicy:
    def test_vector_source_names_no_policy_vocabulary(self):
        # Allocation policy lives in router.py (and routing.py) only;
        # the vector engine calls Router._route_and_allocate for
        # whatever its batched common-shape allocator does not cover.
        # Naming any of these helpers in vector.py would mean a rule is
        # being restated there, and a policy change would then need a
        # mirrored edit nothing forces anyone to make.
        policy_vocabulary = (
            "minimal_ports", "turn_right", "turn_left", "failed_outputs",
            "monopoly_classes", "route_candidates",
        )
        source = Path(vector.__file__).read_text()
        assert [w for w in policy_vocabulary if w in source] == []
        for name in ("_scan_outputs", "_borrowable", "pop_delivered",
                     "reclaim_scheduled_flits", "register_telemetry",
                     "_route_tables"):
            assert f"def {name}" not in source
        # Routing is data (routing.route_table): naming a mesh direction
        # or a column parity here would be a second statement of XY or
        # odd-even.  PORT_EJECT and NUM_MESH_PORTS are structure, not
        # routing, and stay.
        assert re.findall(
            r"even_col|dst_odd|PORT_[WSN]\b|PORT_E\b", source
        ) == []
        assert "_ROUTE_CACHE" not in Path(routing.__file__).read_text()


class TestSchemeParity:
    def test_quick_seeds_select_the_intended_regimes(self):
        assert ARMING_REGIMES[QUICK["seed"] % 3] == (0, 0)
        arm, disarm = ARMING_REGIMES[THRASH["seed"] % 3]
        assert 0 < disarm <= arm < 8
        assert ARMING_REGIMES[2] is None  # the shipped constants

    @pytest.mark.parametrize("scheme", FAULT_SCHEMES)
    def test_firing_faults_bit_identical(self, scheme):
        # The strongest form of the contract: a fault plan that
        # actually fires mid-run (not merely armed) must perturb both
        # engines identically.
        case = VerifyCase(scheme=scheme, faults=FIRING_PLAN, **QUICK)
        run, twin = _assert_parity(case)
        assert run.injector is not None and run.injector.applied > 0
        # Once a fault has fired every allocation is the golden
        # Router's, so parity here is parity of that path.
        tainted = [n for n in _networks(twin) if n.faults_fired]
        assert tainted and all(n.fallback_allocs > 0 for n in tainted)
        assert sum(n.disarms for n in tainted) > 0

    @pytest.mark.parametrize(
        "scheme, role, shape",
        [
            ("VC-Mono", "both", lambda r, p: r.monopolize),
            ("MultiPort", "request",
             lambda r, p: p.dst == r.node and len(r.eject_ports) > 1),
            ("Interposer-CMesh", "cmesh",
             lambda r, p: p.dst == r.node and r.eject_filter is not None),
        ],
    )
    def test_rare_shapes_reach_the_golden_router(self, scheme, role, shape):
        # Fault-free, so these allocations leave the batch because of
        # the shape itself.  Parity must not hold vacuously: the network
        # that owns the shape has to have put it to the golden Router.
        shaped = Counter()
        real = Router._route_and_allocate

        def route_and_allocate(router, port, vc, ivc, flit):
            net = router.network
            if net.engine == "vector" and shape(router, flit.packet):
                shaped[net] += 1
            real(router, port, vc, ivc, flit)

        with mock.patch.object(
            Router, "_route_and_allocate", route_and_allocate
        ):
            _base, twin = _assert_parity(VerifyCase(scheme=scheme, **QUICK))
        nets = _networks(twin, role)
        assert nets
        for net in nets:
            assert (net.arms, net.disarms) == (1, 0)
            # Armed throughout, so every golden call came from _alloc.
            assert 0 < shaped[net] <= net.fallback_allocs

    def test_dense_scheduler_parity(self):
        case = VerifyCase(
            scheme="EquiNox", scheduler="dense", faults=FIRING_PLAN,
            **QUICK,
        )
        _assert_parity(case)

    def test_telemetry_probes_read_vector_state(self):
        # Per-cycle telemetry sampling reads live occupancy/credit
        # state; on the vector path the probes must see the SoA-backed
        # truth without perturbing the fingerprint.
        case = VerifyCase(scheme="EquiNox", telemetry=1, **QUICK)
        _assert_parity(case)

    def test_audits_enforced_on_vector_path(self):
        # validate_every=1 runs the full audit set every base cycle
        # against materialised vector state: conservation, credit and
        # ownership invariants stay enforced, not bypassed for speed.
        case = VerifyCase(
            scheme="EquiNox", engine="vector", faults=FIRING_PLAN, **QUICK
        )
        run = run_case(case, validate_every=1)
        assert run.transactions_completed == run.transactions_total


class TestSyntheticParity:
    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_uniform_traffic_bit_identical(self, scheduler):
        kwargs = dict(
            injection_rate=0.1, cycles=300, seed=3, scheduler=scheduler
        )
        obj = run_uniform(Grid(8), **kwargs)
        with vector.arming(0, 0):
            vec = run_uniform(Grid(8), engine="vector", **kwargs)
        assert vec.network.armed_cycles == vec.cycles
        assert isinstance(vec.network, VectorNetwork)
        assert not isinstance(obj.network, VectorNetwork)
        assert (vec.sent, vec.received, vec.cycles) == (
            obj.sent, obj.received, obj.cycles
        )
        assert obj.sent and obj.received  # actually moved traffic
        assert vec.network.stats.fingerprint() == (
            obj.network.stats.fingerprint()
        )


class TestForcedTransitions:
    """Arming and disarming mid-run must be invisible in the results."""

    def test_arming_restores_the_shipped_thresholds(self):
        shipped = (vector.ARM_FLITS, vector.DISARM_FLITS)
        assert shipped[0] > shipped[1] > 0  # hysteresis
        with pytest.raises(RuntimeError):
            with vector.arming(3, 2):
                assert (vector.ARM_FLITS, vector.DISARM_FLITS) == (3, 2)
                raise RuntimeError
        assert (vector.ARM_FLITS, vector.DISARM_FLITS) == shipped

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_thrashing_scheme_cells_bit_identical(self, scheme, scheduler):
        # Everything at once: a fault plan that fires (where the scheme
        # takes one), per-cycle telemetry probes and per-cycle audits,
        # all reading a network that keeps switching representation
        # underneath them.
        faults = FIRING_PLAN if scheme in FAULT_SCHEMES else ()
        case = VerifyCase(
            scheme=scheme, scheduler=scheduler, faults=faults,
            telemetry=1, **THRASH,
        )
        base = run_case(case, validate_every=0)
        twin = run_case(engine_counterpart(case), validate_every=1)
        assert twin.stats_fingerprint == base.stats_fingerprint
        assert bool(faults) == (twin.injector is not None
                                and twin.injector.applied > 0)
        nets = _networks(twin)
        assert sum(n.arms for n in nets) >= 2
        assert sum(n.disarms for n in nets) >= 2
        for net in nets:
            assert net.arms >= 1 and net.disarms >= 1
            assert 0 < net.armed_cycles < net.stats.cycles

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_thrashing_uniform_traffic_bit_identical(self, scheduler):
        kwargs = dict(
            injection_rate=0.005, cycles=400, seed=3, scheduler=scheduler
        )
        obj = run_uniform(Grid(8), **kwargs)
        with vector.arming(12, 6):
            vec = run_uniform(Grid(8), engine="vector", **kwargs)
        net = vec.network
        assert net.arms >= 5 and net.disarms >= 5
        assert 0 < net.armed_cycles < vec.cycles
        assert (vec.sent, vec.received, vec.cycles) == (
            obj.sent, obj.received, obj.cycles
        )
        assert net.stats.fingerprint() == obj.network.stats.fingerprint()

    def test_default_thresholds_leave_a_quiet_mesh_disarmed(self):
        vec = run_uniform(
            Grid(8), engine="vector", injection_rate=0.01, cycles=200,
            seed=3,
        )
        net = vec.network
        assert (net.arms, net.disarms, net.armed_cycles) == (0, 0, 0)
        assert net._soa is None

    @staticmethod
    def _bursts_with_ports_added(engine, thresholds, scheduler):
        """Two traffic bursts around a lull; structure changes in each.

        An NI joins in the lull (cycle 100) and another in the middle of
        the second burst (cycle 160); a mesh link fails in the lull (90,
        healing at 130 in the burst) and a busy NI buffer fails in the
        burst (170, healing at 230 while its backlog drains) — with
        thrashing thresholds that is a port add and a fault firing each
        once while disarmed and once while armed.  A change while armed drops the snapshot first and
        the next tick re-arms: both new ports sit past the old
        snapshot's port stride (every router had the same ports), which
        a stale snapshot could not have indexed, and the buffer fault
        pulls its on-wire flits back out of the object event dicts.
        """
        grid = Grid(6)
        net = network_class(engine)(
            "ports", grid, flit_bytes=16, vc_classes=[(0,), (1,)],
            scheduler=scheduler,
        )
        nodes = list(grid.nodes())
        senders = {n: [NetworkInterface(net, n)] for n in nodes}
        injector = FaultInjector(
            SimpleNamespace(networks_by_role=lambda role: [net]),
            FaultPlan((
                FaultSpec(kind="mesh_link", node=14, peer=15, at_cycle=90,
                          heal_cycle=130),
                FaultSpec(kind="ni_buffer", node=7, buffer=0, at_cycle=170,
                          heal_cycle=230),
            )),
            strict=True,
        )
        rng = random.Random(11)
        armed_when_added = []
        armed_when_faulted = []
        pid = 0
        with vector.arming(*thresholds):
            for cycle in range(400):
                armed = getattr(net, "_soa", None) is not None
                if cycle in (100, 160):
                    node = nodes[-1] if cycle == 100 else nodes[0]
                    armed_when_added.append(armed)
                    senders[node].append(NetworkInterface(net, node))
                if cycle in (90, 130, 170, 230):
                    armed_when_faulted.append(armed)
                injector.on_cycle(cycle)
                if cycle < 40 or 120 <= cycle < 200:
                    for src in nodes:
                        if rng.random() >= 0.2:
                            continue
                        dst = rng.choice(nodes)
                        if dst == src:
                            continue
                        pid += 1
                        ptype = (
                            PacketType.READ_REPLY if pid % 2
                            else PacketType.READ_REQUEST
                        )
                        nis = senders[src]
                        nis[pid % len(nis)].enqueue(Packet(
                            pid, ptype, src, dst, packet_flits(ptype, 16),
                            0, vc_class=1 if ptype.is_reply else 0,
                        ))
                net.tick()
                report = audit_network(net)
                assert report.ok, (cycle, report.problems)
                for node in nodes:
                    while net.pop_delivered(node) is not None:
                        pass
        assert net.idle()
        assert net.stats.packets_delivered == pid
        assert (injector.applied, injector.healed) == (3, 3)
        assert net.stats.flits_dropped  # 170 caught a flit on the wire
        return net, armed_when_added, armed_when_faulted

    def test_ni_buffer_heal_keeps_the_soa_armed(self):
        # A heal only clears NI-side flags and wakes the NI; the SoA
        # mirrors router state, so it must ride through untouched.
        heals = []
        real_heal = FaultInjector._heal_buffer

        def heal_buffer(injector, target):
            net = target.net
            armed = (net._soa, net.disarms)
            assert net._soa is not None
            real_heal(injector, target)
            assert (net._soa, net.disarms) == armed  # the same snapshot
            heals.append(target)

        obj, _, _ = self._bursts_with_ports_added("object", (0, 0), "active")
        with mock.patch.object(FaultInjector, "_heal_buffer", heal_buffer):
            vec, _, _ = self._bursts_with_ports_added(
                "vector", (0, 0), "active"
            )
        assert len(heals) == 1
        assert vec.stats.fingerprint() == obj.stats.fingerprint()

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    @pytest.mark.parametrize(
        "thresholds, armed_when_added, transitions",
        [
            # always armed: each port add, each fault firing and the
            # link's heal is a disarm + immediate re-arm; the NI buffer's
            # heal changes nothing the SoA mirrors and costs no trip
            ((0, 0), [True, True], (6, 5)),
            # the lull's two changes find it disarmed; two bursts, plus
            # the same round trip for each of the three armed changes
            ((8, 4), [False, True], (5, 5)),
        ],
    )
    def test_port_added_mid_run(
        self, thresholds, armed_when_added, transitions, scheduler
    ):
        obj, _, _ = self._bursts_with_ports_added("object", (0, 0), scheduler)
        vec, added, faulted = self._bursts_with_ports_added(
            "vector", thresholds, scheduler
        )
        assert added == armed_when_added
        # The link fails in the lull like the first port add; its heal
        # and the buffer's fire and heal all land on an armed network
        # (test_ni_buffer_heal_keeps_the_soa_armed pins the last).
        assert faulted == [armed_when_added[0], True, True, True]
        assert (vec.arms, vec.disarms) == transitions
        assert vec.stats.fingerprint() == obj.stats.fingerprint()


class TestSeam:
    """The one seam between ``Network`` and the SoA it holds."""

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_busy_surface_agrees_every_cycle(self, scheduler):
        """One definition of busy, whichever representation answers.

        A saturated 8x8 with slow sinks, an object network and an
        always-armed one in lockstep: every read ``Network`` answers
        from the SoA while armed must equal the object network's, on
        every cycle, across a mid-run port add and a link fault.
        """
        grid = Grid(8)
        nodes = list(grid.nodes())
        nets, nis, injectors = [], [], []
        for engine in ("object", "vector"):
            net = network_class(engine)(
                "seam", grid, flit_bytes=16, vc_classes=[(0,), (1,)],
                scheduler=scheduler,
            )
            nets.append(net)
            nis.append({n: NetworkInterface(net, n) for n in nodes})
            injectors.append(FaultInjector(
                SimpleNamespace(networks_by_role=lambda role, net=net: [net]),
                FaultPlan((FaultSpec(kind="mesh_link", node=27, peer=28,
                                     at_cycle=40, heal_cycle=100),)),
                strict=True,
            ))

        def surface(net):
            return (net.in_flight(), net.idle(), net.quiescent(),
                    sorted(net._active_nodes()), net._peak_router_flits())

        rng = random.Random(7)
        pid = busy = 0
        with vector.arming(0, 0):
            for cycle in range(80 + 1500):
                packets = []
                if cycle < 80:
                    for src in nodes:
                        dst = rng.choice(nodes)
                        if rng.random() < 0.3 and dst != src:
                            pid += 1
                            packets.append((pid, src, dst))
                elif nets[0].quiescent():
                    break
                for net, ni, injector in zip(nets, nis, injectors):
                    injector.on_cycle(cycle)
                    if cycle == 60:
                        for node in nodes:
                            net.add_eject_port(node)
                    for p, src, dst in packets:
                        ptype = (PacketType.READ_REPLY if p % 2
                                 else PacketType.READ_REQUEST)
                        ni[src].enqueue(Packet(
                            p, ptype, src, dst, packet_flits(ptype, 16), 0,
                            vc_class=1 if ptype.is_reply else 0,
                        ))
                    net.tick()
                    if cycle % 16 == 0:
                        for node in nodes:
                            while net.pop_delivered(node) is not None:
                                pass
                assert surface(nets[0]) == surface(nets[1]), cycle
                busy += nets[1]._soa is not None
        obj, vec = nets
        assert obj.quiescent() and vec.quiescent()
        assert obj.stats.packets_delivered == pid > 1500
        assert vec.stats.fingerprint() == obj.stats.fingerprint()
        # Every tick ran armed: a structure change re-arms on the next.
        assert busy == vec.armed_cycles == vec.cycle > 400
        assert vec.disarms >= 3  # the port adds, the fault, its heal
        assert (obj.arms, obj.armed_cycles) == (0, 0)  # the oracle never arms

    def test_the_override_layer_is_gone(self):
        own = set(vars(VectorNetwork)) - {"__module__", "__doc__"}
        assert own == {"engine"}
        assert "super()" not in inspect.getsource(vector)
        assert "cycle" not in inspect.signature(Network.schedule_flit).parameters

    def test_loop_wired_network_runs_on_either_engine(self):
        """A loop network is an ordinary network: the SoA routes its
        lanes from the same LoopTable, armed throughout or thrashing."""
        grid = Grid(4)
        runs = set()
        for engine, regime in (("object", None), ("vector", (0, 0)),
                               ("vector", (3, 2))):
            for scheduler in ("active", "dense"):
                net = network_class(engine)(
                    "ring", grid, 16, vc_classes=[(0,)],
                    scheduler=scheduler, loops=ring_loops(grid),
                )
                nis = {n: LoopInterface(net, n) for n in grid.nodes()}
                pid = 0
                for src in grid.nodes():
                    for dst in grid.nodes():
                        if src != dst:  # all pairs: 240 packets
                            pid += 1
                            ptype = (PacketType.READ_REPLY if pid % 2
                                     else PacketType.READ_REQUEST)
                            nis[src].enqueue(Packet(
                                pid, ptype, src, dst,
                                packet_flits(ptype, 16), 0,
                            ))
                with vector.arming(*regime) if regime else nullcontext():
                    while not net.idle() and net.cycle < 3000:
                        net.tick()
                        for node in grid.nodes():
                            while net.pop_delivered(node) is not None:
                                pass
                assert net.idle() and net.stats.packets_delivered == 240
                if regime == (0, 0):
                    assert (net.arms, net.disarms) == (1, 0)
                    assert net.armed_cycles == net.cycle
                    # The SoA views the table's memory; it copies none.
                    table, soa = net.loop_table, net._soa
                    assert soa.loop_pos.base.obj is table.pos
                    assert soa.loop_nxt.base.obj is table.nxt
                elif regime:
                    assert net.arms and net.disarms
                runs.add((net.stats.fingerprint()[:10], net.cycle))
        assert runs == {("b054bfe7b7", 227)}


class TestVerifyIntegration:
    def test_engine_parity_property_exercises_every_regime(self):
        # The fuzzed property must not pass vacuously on its small
        # meshes: across a sample of generated cases each regime occurs,
        # always-armed cases really run armed, thrash cases really make
        # round trips.
        seen = {}

        @settings(
            deadline=None, max_examples=12, derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(case=cases(widths=(4,), with_faults=False))
        def sample(case):
            regime = case.seed % 3
            if regime in seen:
                return
            run = run_case(
                case.with_variant(engine="vector"), validate_every=0
            )
            seen[regime] = [
                (n.arms, n.disarms, n.armed_cycles) for n in _networks(run)
            ]

        sample()
        assert sorted(seen) == [0, 1, 2]
        assert all((a, d) == (1, 0) and c for a, d, c in seen[0])
        assert all(a >= 1 and d >= 1 for a, d, _c in seen[1])
        assert all((a, d, c) == (0, 0, 0) for a, d, c in seen[2])


    def test_engine_parity_is_a_campaign_property(self):
        assert PROPERTY_ENGINE_PARITY in KNOWN_PROPERTIES
        assert FAST.engine_examples > 0

    def test_fast_profile_space_draws_both_engines(self):
        seen = set()

        @settings(
            deadline=None, max_examples=40, derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(case=cases())
        def sample(case):
            seen.add(case.engine)

        sample()
        assert seen == {"object", "vector"}
