"""Differential tests for the active-set scheduler.

The active scheduler (tick only components with work, fast-forward
quiescent gaps) must be *bit-identical* to the dense oracle (walk every
NI and router every cycle): same stats fingerprints, same cycle counts,
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
from repro.noc import vector
from repro.noc.faults import FaultInjector, FaultPlan, FaultSpec
from repro.noc.interface import NetworkInterface
from repro.noc.network import Network, network_class, resolve_scheduler
from repro.noc.router import Router
from repro.noc.types import Packet, PacketType, packet_flits
from repro.noc.vector import _SoA
from repro.schemes import SCHEME_ORDER, get_config
from repro.workloads import profiles
from repro.workloads.synthetic import run_uniform

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

    def test_fast_forward_engages_and_stays_invisible(self):
        cycles = {}
        for sched in ("dense", "active"):
            fabric = build_fabric("SeparateBase", _config(), scheduler=sched)
            system = System(fabric, profiles.get("bfs"),
                            SystemConfig(quota=10))
            result = system.run()
            cycles[sched] = result.cycles
            if sched == "active":
                assert system.fast_forwarded_cycles > 0
            else:
                assert system.fast_forwarded_cycles == 0
        assert cycles["active"] == cycles["dense"]

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
        FaultPlan(tuple(faults)), strict=True,
    )
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
        and 641,141 allocation attempts for the same 356,958 moves.
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
        assert calls["alloc"] <= 440_000


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
