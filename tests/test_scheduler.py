"""Differential tests for the active-set scheduler.

The active scheduler (tick only the routers and NIs with work) must be
*bit-identical* to the dense oracle (walk every NI and router every
cycle): same stats fingerprints, same cycle counts,
same stall counters, same audit outcomes, same watchdog trip cycle.
These tests pin that contract across all schemes, with conservation
audits armed and with a firing fault plan.
"""

import dataclasses
import inspect
import random
from types import SimpleNamespace

import pytest

from repro import settings
from repro.cli import main
from repro.core.grid import Grid
from repro.gpu.system import SimulationStall, System, SystemConfig
from repro.harness.experiment import (
    ExperimentConfig,
    build_fabric,
    run_with_fabric,
)
from repro.noc import routing, validation, vector
from repro.noc.faults import FaultInjector, FaultPlan, FaultSpec
from repro.noc.interface import NetworkInterface
from repro.noc.network import Network, network_class, resolve_scheduler
from repro.noc.router import Router
from repro.noc.types import Packet, PacketType, packet_flits
from repro.noc.vector import _SoA
from repro.schemes import SCHEME_ORDER, get_config
from repro.workloads import profiles
from repro.workloads.synthetic import run_uniform
from tests.parking import park

QUICK = dict(quota=10, mcts_iterations=10, validate=64)


def _config(faults=()):
    return ExperimentConfig(faults=tuple(faults), **QUICK)


# ----------------------------------------------------------------------
# The choice: a library keyword, never a user option
# ----------------------------------------------------------------------
class TestResolveScheduler:
    def test_default_is_active(self):
        assert resolve_scheduler() == "active"
        fabric = build_fabric("SeparateBase", _config())
        assert fabric.scheduler == "active"

    def test_invalid_rejected(self):
        for value in ("lazy", " Dense "):
            with pytest.raises(ValueError, match="unknown scheduler"):
                resolve_scheduler(value)

    def test_fabric_exposes_choice(self):
        fabric = build_fabric("SeparateBase", _config(), scheduler="dense")
        assert fabric.scheduler == "dense"
        for net, _ratio, _role in fabric.networks:
            assert net.scheduler == "dense"

    def test_not_a_user_option(self, capsys):
        assert "scheduler" not in {f.name for f in
                                   dataclasses.fields(ExperimentConfig)}
        assert "scheduler" not in settings.SETTINGS
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheduler", "dense"])
        assert exc.value.code == 2
        assert "--scheduler" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Full-system differential: every scheme, audits armed, faults firing
# ----------------------------------------------------------------------
class TestSchedulerDifferential:
    # Fault plans are a mesh-only capability; the loop baselines get an
    # equivalent scheduler differential (without faults) in
    # test_schemes.py::TestLoopSchemes.
    @pytest.mark.parametrize(
        "scheme",
        [s for s in SCHEME_ORDER if get_config(s).supports_faults],
    )
    def test_scheme_bit_identical_with_firing_faults(self, scheme):
        # Fault the first CB's reply-injection buffer mid-run (firing),
        # and arm a never-firing mesh fault: both the fault machinery
        # and the armed-only path must leave the schedulers in lockstep.
        placement = build_fabric(scheme, _config()).placement
        faults = (
            FaultSpec(kind="ni_buffer", node=placement[0], buffer=0,
                      net="reply", at_cycle=50, heal_cycle=400),
            FaultSpec(kind="mesh_link", node=0, peer=1, net="any",
                      at_cycle=10 ** 9),
        )
        config = _config(faults)
        results = {
            sched: run_with_fabric(
                build_fabric(scheme, config, scheduler=sched), "hotspot",
                config, scheme,
            )
            for sched in ("dense", "active")
        }
        dense, active = results["dense"], results["active"]
        assert active.stats_fingerprint == dense.stats_fingerprint
        assert active.cycles == dense.cycles
        assert active.instructions == dense.instructions
        assert active.pe_stall_cycles == dense.pe_stall_cycles
        assert active.cb_stall_cycles == dense.cb_stall_cycles
        assert active.flits_dropped == dense.flits_dropped
        assert active.packets_recovered == dense.packets_recovered

    def test_memory_tail_cell_is_identical(self):
        # SeparateBase x bfs at quota 10 ends with an empty fabric while
        # the PEs wait on memory: both schedulers simulate every cycle
        # of that tail and must agree on it.
        results = {}
        for sched in ("dense", "active"):
            fabric = build_fabric("SeparateBase", _config(), scheduler=sched)
            system = System(fabric, profiles.get("bfs"),
                            SystemConfig(quota=10))
            results[sched] = system.run()
        dense, active = results["dense"], results["active"]
        assert active.cycles == dense.cycles
        assert active.instructions == dense.instructions
        assert active.pe_stall_cycles == dense.pe_stall_cycles
        assert active.cb_stall_cycles == dense.cb_stall_cycles

    def test_watchdog_trips_at_identical_cycle(self):
        trip = {}
        for sched in ("dense", "active"):
            fabric = build_fabric("SeparateBase", _config(), scheduler=sched)
            system = System(
                fabric, profiles.get("kmeans"),
                SystemConfig(quota=10, watchdog_cycles=800,
                             max_cycles=100000),
            )
            # Leak every ejection credit of the reply network so replies
            # can never commit and the run deadlocks.
            for router in fabric.reply_net.routers:
                for eject in router.eject_ports:
                    router.outputs[eject].credits[0] = 0
            with pytest.raises(SimulationStall):
                system.run()
            trip[sched] = system.cycle
        assert trip["active"] == trip["dense"]


# ----------------------------------------------------------------------
# Network-only differential
# ----------------------------------------------------------------------
class TestSyntheticDifferential:
    @pytest.mark.parametrize("rate", [0.002, 0.05, 0.3])
    def test_uniform_traffic_fingerprints_match(self, rate):
        prints = {}
        for sched in ("dense", "active"):
            result = run_uniform(Grid(8), injection_rate=rate, cycles=600,
                                 seed=7, scheduler=sched)
            prints[sched] = (result.network.stats.fingerprint(),
                             result.received, result.cycles)
        assert prints["active"] == prints["dense"]


# ----------------------------------------------------------------------
# The router sleep rule: a tick that raised no request marks the router
# blocked, the active scheduler skips it, and six sites end the sleep
# ----------------------------------------------------------------------
def _saturate(scheduler, engine="object", rate=0.3, pop_every=1, faults=(),
              add_eject_at=None, flip_every=0):
    """Saturate an 8x8 mesh for 80 cycles, then drain (bounded).

    ``pop_every`` > 1 makes the sinks slow, so ejection credits run out
    and only a pop returns them; ``add_eject_at`` widens every router's
    ejection mid-run; ``flip_every`` alternates a vector network
    between the object path and the SoA every that many cycles.
    Returns ``(fingerprint, cycles, drained)``.
    """
    grid = Grid(8)
    net = network_class(engine)(
        "sleep", grid, flit_bytes=16, vc_classes=[(0,), (1,)],
        scheduler=scheduler,
    )
    nodes = list(grid.nodes())
    nis = {node: NetworkInterface(net, node) for node in nodes}
    injector = FaultInjector(
        SimpleNamespace(networks_by_role=lambda role: [net]),
        FaultPlan(tuple(faults)),
    )
    assert injector.unmatched == []
    rng = random.Random(7)
    pid = 0
    with vector.arming(10 ** 9, 10 ** 9):
        for cycle in range(80 + 1500):
            injector.on_cycle(cycle)
            if cycle == add_eject_at:
                for node in nodes:
                    net.add_eject_port(node)
            if flip_every and cycle % flip_every == 0:
                regime = 0 if (cycle // flip_every) % 2 else 10 ** 9
                vector.ARM_FLITS = vector.DISARM_FLITS = regime
            if cycle < 80:
                for src in nodes:
                    if rng.random() >= rate:
                        continue
                    dst = rng.choice(nodes)
                    if dst == src:
                        continue
                    pid += 1
                    ptype = (PacketType.READ_REPLY if pid % 2
                             else PacketType.READ_REQUEST)
                    nis[src].enqueue(Packet(
                        pid, ptype, src, dst, packet_flits(ptype, 16), 0,
                        vc_class=1 if ptype.is_reply else 0,
                    ))
            elif net.idle():
                break
            net.tick()
            if cycle % pop_every == 0:
                for node in nodes:
                    while net.pop_delivered(node) is not None:
                        pass
    if flip_every:
        assert net.arms >= 10 and net.disarms >= 10
    return net.stats.fingerprint(), net.cycle, net.idle()


def _without(monkeypatch, owner, name, line):
    """Patch ``owner.name`` with a copy that lacks one source line."""
    func = getattr(owner, name)
    source = "if 1:\n" + inspect.getsource(func)
    assert source.count(line) == 1, (owner, name, line)
    scope = {}
    exec(
        compile(source.replace(line, line.replace(line.strip(), "pass")),
                inspect.getsourcefile(func), "exec"),
        func.__globals__, scope,
    )
    monkeypatch.setattr(owner, name, scope[name])


_LINK_FAULT = (FaultSpec(kind="mesh_link", node=27, peer=28, at_cycle=40,
                         heal_cycle=100),)
#: wake site -> (class, method, the one line that wakes, the saturated
#: run in which forgetting it shows).
_WAKES = {
    "arrival": (
        Network, "tick", "\n            router.blocked = False\n", {}),
    "link_credit": (
        Network, "tick",
        "\n                port.router.blocked = False\n", {}),
    "eject_credit": (
        Network, "pop_delivered",
        "\n                    eject_port.router.blocked = False\n",
        dict(pop_every=16)),
    "materialise": (
        _SoA, "materialize_inputs",
        "\n        router.blocked = False\n",
        dict(engine="vector", flip_every=3)),
    "fault": (
        Network, "soa_invalidate",
        "\n            router.blocked = False\n",
        # Half the load: detours around a dead link give up the turn
        # model, and at 0.3 they deadlock under either scheduler.
        dict(rate=0.15, faults=_LINK_FAULT)),
    "port_added": (
        Router, "add_eject_port", "\n        self.blocked = False\n",
        dict(pop_every=16, add_eject_at=60)),
    # Two of the three memo drops; the third, in soa_invalidate, has
    # its own test (TestRefusalMemo).
    "memo_port_added": (
        Router, "add_eject_port", "\n        self.drop_memos()\n",
        dict(pop_every=16, add_eject_at=60)),
    "memo_materialise": (
        _SoA, "materialize_inputs", "\n                ivc.memo = None\n",
        dict(engine="vector", flip_every=3)),
}


class TestRouterSleep:
    @pytest.mark.parametrize("site", sorted(_WAKES))
    def test_no_wake_site_is_decorative(self, site, monkeypatch):
        """Delete one wake and the schedulers (or engines) must part.

        The dense oracle never reads the mark, so it is the reference
        for the mutant too: the active run either sleeps through work
        (different fingerprint) or never drains.
        """
        owner, name, line, scenario = _WAKES[site]
        oracle = {k: v for k, v in scenario.items()
                  if k not in ("engine", "flip_every")}
        dense = _saturate("dense", **oracle)
        assert dense[2]  # the reference run drained
        assert _saturate("active", **scenario) == dense
        _without(monkeypatch, owner, name, line)
        assert _saturate("dense", **oracle) == dense
        assert _saturate("active", **scenario) != dense

    def test_work_that_cannot_move_a_flit_is_not_done(self):
        """Exact counts on ``fabric_saturated``'s object half, no clock.

        Before the sleep rule this run made 302,054 arbitration passes
        and 641,141 allocation attempts for the same 356,958 moves;
        before the refusal memo, 436,946 attempts (now 131,511).
        """
        calls = {"tick": 0, "alloc": 0}
        real_tick, real_alloc = Router.tick, Router._route_and_allocate

        def tick(router, *args):
            calls["tick"] += 1
            return real_tick(router, *args)

        def alloc(router, *args):
            calls["alloc"] += 1
            return real_alloc(router, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Router, "tick", tick)
            patch.setattr(Router, "_route_and_allocate", alloc)
            result = run_uniform(Grid(24), 0.08, cycles=150, seed=1)
        assert result.sent == result.received == 6920
        assert result.network.stats.buffer_reads == 356958
        assert calls["tick"] <= 235_000
        assert calls["alloc"] <= 135_000


def _refused_head(scheduler):
    """A request head at router 5 of a 4x4 mesh, refused once.

    It arrived from the west and heads one hop east, so east is its
    only candidate output, and that output has no credit left.
    Returns ``(net, router, the head's InputVC)``.
    """
    net = Network("memo", Grid(4), flit_bytes=16, vc_classes=[(0,), (1,)],
                  scheduler=scheduler)
    router = net.routers[5]
    router.outputs[routing.PORT_E].credits[0] = 0
    # Only the head is parked, so a granted route outlives its hop.
    packet = Packet(1, PacketType.READ_REQUEST, 4, 6, 2, 0)
    park(router, routing.PORT_W, 0, packet.make_flits()[0], 0)
    if scheduler == "active":
        net.active.add(5)
    net.tick()
    ivc = router.inputs[routing.PORT_W][0]
    assert ivc.out_port is None
    return net, router, ivc


class TestRefusalMemo:
    """A refused head is re-offered only once a candidate could take it."""

    def _fail_east_link(self, net):
        injector = FaultInjector(
            SimpleNamespace(networks_by_role=lambda role: [net]),
            FaultPlan((FaultSpec(kind="mesh_link", node=5, peer=6,
                                 at_cycle=net.cycle),)),
        )
        injector.on_cycle(net.cycle)
        assert net.faults_fired

    def test_memo_watches_the_refused_candidates(self):
        net, router, ivc = _refused_head("active")
        east = router.outputs[routing.PORT_E]
        assert ivc.memo == ((east.owner, east.credits, (0,)),)
        net.tick()
        assert ivc.out_port is None and ivc.memo is not None
        east.credits[0] = 1  # what a returning credit writes
        router.blocked = False
        net.tick()
        assert ivc.memo is None
        assert (ivc.out_port, ivc.out_vc) == (routing.PORT_E, 0)

    def test_fault_drops_the_memo_and_the_head_detours(self, monkeypatch):
        """Every candidate fails: only a dropped memo lets the head detour.

        The east output never regains a credit, so a memo left in place
        keeps the head parked behind a dead link for good.
        """
        detour = routing.turn_right(routing.PORT_E)
        net, router, ivc = _refused_head("active")
        assert ivc.memo is not None
        self._fail_east_link(net)
        assert ivc.memo is None
        net.tick()
        assert ivc.out_port == detour

        _without(monkeypatch, Network, "soa_invalidate",
                 "\n            router.drop_memos()\n")
        net, router, ivc = _refused_head("active")
        self._fail_east_link(net)
        assert ivc.memo is not None
        for _ in range(5):
            net.tick()
        assert ivc.out_port is None

    def test_refused_reply_reads_the_borrow_rule(self, monkeypatch):
        """A reply refused on a monopolising router is memoised too.

        Its own class is full east and a request head sits at the
        router, so it may not borrow east's free request VC.  The memo
        holds (no attempt) until the request leaves; the re-check then
        reads the borrow rule and the reply takes the foreign VC.
        """
        net = Network("mono", Grid(4), flit_bytes=16,
                      vc_classes=[(0,), (1,)], monopolize=True,
                      scheduler="active")
        router = net.routers[5]
        router.outputs[routing.PORT_E].credits[1] = 0
        router.outputs[routing.PORT_S].credits[0] = 0
        request = Packet(1, PacketType.READ_REQUEST, 1, 13, 1, 0)
        reply = Packet(2, PacketType.READ_REPLY, 4, 6, 2, 0, vc_class=1)
        park(router, routing.PORT_N, 0, request.make_flits()[0], 0)
        park(router, routing.PORT_W, 1, reply.make_flits()[0], 0)
        net.active.add(5)
        attempts = []
        real = Router._route_and_allocate

        def attempt(at, port, vc, ivc, flit):
            if at is router:
                attempts.append(flit.packet.pid)
            real(at, port, vc, ivc, flit)

        monkeypatch.setattr(Router, "_route_and_allocate", attempt)
        ivc = router.inputs[routing.PORT_W][1]
        net.tick()
        assert ivc.out_port is None and ivc.borrow is not None
        assert attempts == [2, 1]
        router.blocked = False
        net.tick()
        assert attempts == [2, 1]  # both memos hold
        assert validation._check_memo(net, router, routing.PORT_W, 1, ivc) == ""
        router.outputs[routing.PORT_S].credits[0] = 1
        router.blocked = False
        net.tick()  # the request leaves; the reply still sees its head
        assert attempts == [2, 1, 1] and ivc.memo is not None
        # The audit reads the borrow rule too: the held memo now reads
        # grantable, as a fresh attempt would be.
        assert validation._check_memo(net, router, routing.PORT_W, 1, ivc) == ""
        net.tick()
        assert attempts == [2, 1, 1, 2]
        assert (ivc.out_port, ivc.out_vc) == (routing.PORT_E, 0)

    def test_dense_oracle_never_memoises(self, monkeypatch):
        net, _router, ivc = _refused_head("dense")
        assert ivc.memo is None
        refusals = {"dense": [], "active": []}
        real = Router._refuse

        def refuse(router, ivc, *args):
            real(router, ivc, *args)
            refusals[router.network.scheduler].append(ivc.memo is not None)

        monkeypatch.setattr(Router, "_refuse", refuse)
        for scheduler in refusals:
            run_uniform(Grid(8), 0.3, cycles=100, seed=7,
                        scheduler=scheduler)
        assert refusals["dense"] and not any(refusals["dense"])
        assert all(refusals["active"])


class TestSaturatedDifferential:
    """Dense vs active and object vs vector where routers do block."""

    @pytest.mark.parametrize("routing", ["xy", "oddeven"])
    def test_saturated_12x12_checksums_match(self, routing):
        prints = {}
        for scheduler, engine in (("dense", "object"), ("active", "object"),
                                  ("dense", "vector"), ("active", "vector")):
            result = run_uniform(
                Grid(12), 0.12, cycles=150, seed=1, scheduler=scheduler,
                engine=engine, routing_algorithm=routing,
            )
            net = result.network
            if engine == "vector":
                # Shipped thresholds: both paths and both transitions.
                assert net.arms and net.disarms
                assert 0 < net.armed_cycles < result.cycles
            prints[scheduler, engine] = (
                net.stats.fingerprint(), result.received, result.cycles
            )
        assert len(set(prints.values())) == 1, prints

    @pytest.mark.parametrize(
        "scheme, overrides",
        [
            ("VC-Mono", {}),
            ("ring_router", dict(width=6, num_cbs=5)),
            ("EquiNox", dict(faults=(
                FaultSpec(kind="mesh_link", node=27, peer=28, net="reply",
                          at_cycle=60, heal_cycle=300),
            ))),
        ],
    )
    def test_saturated_cells_match(self, scheme, overrides):
        config = ExperimentConfig(quota=12, mcts_iterations=10, validate=16,
                                  **overrides)
        runs = [("dense", "object"), ("active", "object"),
                ("active", "vector")]
        prints = set()
        for scheduler, engine in runs:
            cell = dataclasses.replace(config, engine=engine)
            fabric = build_fabric(scheme, cell, scheduler=scheduler)
            # Thresholds an 8x8 cell crosses, so the vector twin arms
            # and disarms instead of being the object path throughout.
            with vector.arming(24, 12):
                result = run_with_fabric(fabric, "hotspot", cell, scheme)
            nets = [net for net, _ratio, _role in fabric.networks]
            if engine == "vector":
                for net in nets:
                    assert net.arms and net.disarms
                    assert 0 < net.armed_cycles < net.stats.cycles
            if cell.faults:
                assert fabric.reply_net.faults_fired
            prints.add((result.stats_fingerprint, result.cycles,
                        result.instructions))
        assert len(prints) == 1, prints
