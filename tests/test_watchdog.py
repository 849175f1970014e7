"""End-to-end tests for the stall watchdog and validation mode.

Covers the acceptance criterion: a deliberate credit leak deadlocks a
small run, and the watchdog reports it within the configured window,
naming the stuck router/port in the diagnostic dump.  Also pins the
read-only contract of validation mode (bit-identical fingerprints) and
the zero-clamp property of the latency model across smoke runs.
"""

import pytest

from repro import settings
from repro.gpu.system import SimulationStall, System, SystemConfig
from repro.harness.experiment import (
    ExperimentConfig,
    build_fabric,
    resolve_interval,
    run_experiment,
    run_with_fabric,
)
from repro.gpu import system as system_mod
from repro.noc import (
    Network,
    NetworkAuditError,
    NetworkInterface,
    audit_networks,
    vector,
)
from repro.core.grid import Grid
from repro.noc.diagnostics import DEFAULT_AUDIT_INTERVAL, network_dump
from repro.noc.loops import LoopInterface, ring_loops
from repro.noc.routing import PORT_E, PORT_S, PORT_W
from repro.noc.types import Packet, PacketType, packet_flits
from repro.workloads import profiles

CFG = ExperimentConfig(quota=10, mcts_iterations=10)


def make_system(scheme="SeparateBase", bench="kmeans", **kw):
    fabric = build_fabric(scheme, CFG)
    system = System(
        fabric, profiles.get(bench), SystemConfig(quota=CFG.quota, **kw)
    )
    return fabric, system


class TestWatchdog:
    def test_eject_credit_leak_trips_watchdog_with_located_dump(self):
        fabric, system = make_system(watchdog_cycles=800, max_cycles=100000)
        # Leak every ejection credit of the reply network: replies can
        # never commit to their sinks, so every PE eventually starves.
        for router in fabric.reply_net.routers:
            for eject in router.eject_ports:
                router.outputs[eject].credits[0] = 0
        with pytest.raises(SimulationStall) as exc_info:
            system.run()
        err = exc_info.value
        assert "watchdog window 800" in str(err)
        assert system.cycle < 100000  # fired long before the timeout
        # The trip point: progress is read lazily, yet the watchdog
        # fires on the cycle and names the cycle an every-cycle read
        # would.
        assert system.cycle == 986
        assert "since base cycle 185" in str(err)
        # The dump names the leaking router/port and locates the oldest
        # stuck packet.
        assert "eject(" in err.dump
        assert "credit leak" in err.dump
        assert "oldest stuck packet" in err.dump
        assert "router" in err.dump
        # ... and says why its head cannot move: the one output it may
        # request is the leaked eject port.
        assert "no output allocated" in err.dump
        assert "candidate EJ out(p4): v0 owner=None credits=0" in err.dump

    def test_dump_names_each_refused_candidate_of_a_stuck_head(self):
        net = Network("t", Grid(4), flit_bytes=16, vc_classes=[(0,), (1,)])
        nis = [NetworkInterface(net, n) for n in net.grid.nodes()]
        # (0,0) -> (2,2) under odd-even may leave south or east: fail
        # the first, and leave the second owned and out of credits.
        router = net.routers[0]
        router.failed_outputs.add(PORT_S)
        east = router.outputs[PORT_E]
        east.owner[1] = (PORT_W, 1)
        east.credits[1] = 0
        ptype = PacketType.READ_REPLY
        nis[0].enqueue(
            Packet(1, ptype, 0, 10, packet_flits(ptype, 16), 0, vc_class=1)
        )
        for _ in range(20):
            net.tick()
        assert net.stats.packets_delivered == 0
        dump = network_dump(net)
        assert "oldest stuck packet: pid 1 READ_REPLY 0->10" in dump
        # The router line says how long the head has waited there.
        head = next(
            flit for port in router.input_ports
            for ivc in router.inputs[port] for flit in ivc.queue
        )
        assert head.is_head and head.packet.pid == 1
        assert head.buffered_at > 0
        assert f"flit(s) since cycle {head.buffered_at}," in dump
        where = dump.index("no output allocated")
        assert dump[where:].splitlines()[1:3] == [
            f"    candidate S out(p{PORT_S}): output failed",
            f"    candidate E out(p{PORT_E}): v1 owner=({PORT_W}, 1) credits=0",
        ]

    def test_dump_reads_a_stuck_loop_head_s_refusal_from_the_table(self):
        grid = Grid(4)
        net = Network("ring", grid, flit_bytes=16, vc_classes=[(0,)],
                      loops=ring_loops(grid))
        ni = LoopInterface(net, 0)
        # 0 -> 2 is two hops forward on lane 0 (14 on the reverse ring):
        # hold its forward port's dateline VC at the injection node.
        port, vc = net.loop_table.route(0, 0, 0)
        out = net.routers[0].outputs[port]
        out.owner[vc] = (9, 0)
        out.credits[vc] = 0
        ptype = PacketType.READ_REQUEST
        packet = Packet(1, ptype, 0, 2, packet_flits(ptype, 16), 0)
        ni.enqueue(packet)
        for _ in range(20):
            net.tick()
        assert packet.lane == 0 and net.stats.packets_delivered == 0
        dump = network_dump(net)
        where = dump.index("no output allocated")
        assert dump[where:].splitlines()[1] == (
            f"    candidate port out(p{port}): v{vc} owner=(9, 0) credits=0"
        )

    def test_audit_catches_leak_before_watchdog(self):
        fabric, system = make_system(
            validate_interval=50, max_cycles=100000
        )
        router = fabric.reply_net.routers[0]
        router.outputs[router.eject_ports[0]].credits[0] -= 1
        with pytest.raises(NetworkAuditError) as exc_info:
            system.run()
        err = exc_info.value
        assert system.cycle <= 50  # first periodic audit
        assert "credit leak" in str(err)
        assert err.dump  # carries the full diagnostic dump
        assert any(not r.ok for r in err.reports)

    def test_healthy_run_passes_with_validation_enabled(self):
        _fabric, system = make_system(validate_interval=32)
        result = system.run()
        assert result.cycles > 0


class TestAuditNetworks:
    def test_raises_with_reports_and_dump(self):
        nets = []
        for name in ("a", "b"):
            net = Network(name, Grid(4), flit_bytes=16,
                          vc_classes=[(0,), (1,)])
            for n in net.grid.nodes():
                NetworkInterface(net, n)
            nets.append(net)
        audit_networks(nets)  # healthy: no raise
        nets[1].routers[2].outputs[0].credits[0] = -1
        with pytest.raises(NetworkAuditError) as exc_info:
            audit_networks(nets)
        err = exc_info.value
        assert [r.ok for r in err.reports] == [True, False]
        assert "negative credits" in str(err)
        assert "=== network 'a'" in err.dump
        assert "=== network 'b'" in err.dump

    def test_system_audits_exactly_on_interval_multiples(self, monkeypatch):
        cycles = []
        real = system_mod.audit_networks

        def counting(networks):
            cycles.append(system.cycle)
            real(networks)

        monkeypatch.setattr(system_mod, "audit_networks", counting)
        _fabric, system = make_system(bench="bfs", validate_interval=10)
        result = system.run()
        assert cycles == list(range(10, result.cycles + 1, 10))


class TestEnvKnobs:
    def test_validate_interval_semantics(self, monkeypatch):
        def interval():
            config = settings.resolve(ExperimentConfig())
            return resolve_interval(config.validate, DEFAULT_AUDIT_INTERVAL)

        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert interval() == 0
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert interval() == DEFAULT_AUDIT_INTERVAL
        monkeypatch.setenv("REPRO_VALIDATE", "128")
        assert interval() == 128
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert interval() == 0
        # Unparseable is a loud config error: REPRO_VALIDATE=true must
        # not quietly disable every audit.
        monkeypatch.setenv("REPRO_VALIDATE", "true")
        with pytest.raises(ValueError, match="REPRO_VALIDATE must be an "
                                             "integer, got 'true'"):
            interval()

    def test_resolve_validate_interval(self):
        default = DEFAULT_AUDIT_INTERVAL
        assert resolve_interval(-3, default) == 0
        assert resolve_interval(0, default) == 0
        assert resolve_interval(1, default) == DEFAULT_AUDIT_INTERVAL
        assert resolve_interval(64, default) == 64

    def test_watchdog_env(self, monkeypatch):
        def window(explicit=0):
            config = ExperimentConfig(watchdog_cycles=explicit)
            return settings.resolve(config).watchdog_cycles

        monkeypatch.delenv("REPRO_WATCHDOG_CYCLES", raising=False)
        assert window() == 0  # unset: System falls back to its default
        monkeypatch.setenv("REPRO_WATCHDOG_CYCLES", "1234")
        assert window() == 1234
        assert window(999) == 999  # explicit beats the variable
        monkeypatch.setenv("REPRO_WATCHDOG_CYCLES", "-5")
        assert window() == 0
        monkeypatch.setenv("REPRO_WATCHDOG_CYCLES", "soon")
        with pytest.raises(ValueError, match="REPRO_WATCHDOG_CYCLES must "
                                             "be an integer"):
            window()


class TestValidationDeterminism:
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_validate_env_leaves_fingerprint_identical(
        self, monkeypatch, engine
    ):
        """Audits are read-only: REPRO_VALIDATE must not perturb runs."""
        def run():
            fabric = build_fabric("SeparateBase", CFG)
            result = run_with_fabric(fabric, "kmeans", CFG, "SeparateBase")
            armed = sum(net.armed_cycles for net, _r, _role in fabric.networks)
            assert (armed > 0) == (engine == "vector")
            return result

        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        monkeypatch.setenv("REPRO_ENGINE", engine)
        # Always armed, so the vector engine ticks its arrays.
        with vector.arming(0, 0):
            base = run()
            monkeypatch.setenv("REPRO_VALIDATE", "64")
            validated = run()
        assert validated.stats_fingerprint == base.stats_fingerprint
        assert validated.cycles == base.cycles

    @pytest.mark.parametrize("scheme", ["SingleBase", "MultiPort", "EquiNox"])
    def test_validated_smoke_runs_stay_clean(self, scheme):
        """No scheme trips a (false-positive) audit under real traffic."""
        cfg = ExperimentConfig(quota=10, mcts_iterations=10, validate=32)
        result = run_experiment(scheme, "hotspot", cfg)
        assert result.cycles > 0


class TestClampedSmoke:
    @pytest.mark.parametrize(
        "scheme", ["SingleBase", "SeparateBase", "MultiPort", "EquiNox"]
    )
    @pytest.mark.parametrize("bench", ["kmeans", "hotspot"])
    def test_no_latency_sample_clamped(self, scheme, bench):
        """The zero-load model never overestimates a measured latency."""
        fabric = build_fabric(scheme, CFG)
        run_with_fabric(fabric, bench, CFG)
        for net, _ratio, _role in fabric.networks:
            for ptype, acc in net.stats.latency.items():
                assert acc.clamped == 0, (scheme, bench, ptype)
