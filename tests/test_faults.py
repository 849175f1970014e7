"""Fault injection: spec validation, quarantine semantics, degradation.

Covers the three layers of the fault subsystem:

* declarative layer — :class:`FaultSpec` / :class:`FaultPlan` JSON
  round-tripping and validation;
* mechanism layer — NI-buffer quarantine (idle / untransmitted /
  mid-wormhole), link fail-stop and transient healing, audited with
  the conservation checker at every step;
* system layer — end-to-end degradation: EquiNox survives losing EIR
  links with monotonically degrading throughput while the dropped-flit
  ledger keeps every audit green, and an armed-but-never-firing plan
  is bit-identical to an unarmed run.
"""

import json

import pytest

from repro import settings
from repro.core.eir import EirDesign, make_group
from repro.core.grid import Grid
from repro.harness import cache
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.noc import EquiNoxInterface, Network, Packet, PacketType
from repro.noc.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    eir_link_faults,
    parse_faults_arg,
)
from repro.noc.validation import assert_healthy

QUICK = ExperimentConfig(quota=10, mcts_iterations=10, validate=64)


# ----------------------------------------------------------------------
# Declarative layer
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray")

    def test_unknown_net_rejected(self):
        with pytest.raises(ValueError, match="net role"):
            FaultSpec(kind="ni_buffer", node=0, buffer=0, net="sideband")

    def test_heal_must_follow_fail(self):
        with pytest.raises(ValueError, match="heal_cycle"):
            FaultSpec(kind="ni_buffer", node=0, buffer=0,
                      at_cycle=100, heal_cycle=100)

    def test_required_fields_per_kind(self):
        with pytest.raises(ValueError, match="node and buffer"):
            FaultSpec(kind="ni_buffer", node=3)
        with pytest.raises(ValueError, match="node and peer"):
            FaultSpec(kind="mesh_link", node=3)
        with pytest.raises(ValueError, match="node and port"):
            FaultSpec(kind="router_port", port=1)

    def test_eir_link_wildcard_is_all_or_nothing(self):
        FaultSpec(kind="eir_link")  # full wildcard: fine
        FaultSpec(kind="eir_link", node=1, peer=2)  # explicit: fine
        with pytest.raises(ValueError, match="wildcard"):
            FaultSpec(kind="eir_link", node=1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"kind": "eir_link", "sector": 7})
        with pytest.raises(ValueError, match="missing 'kind'"):
            FaultSpec.from_dict({"node": 0})


class TestFaultPlan:
    PLAN = FaultPlan((
        FaultSpec(kind="eir_link", node=27, peer=29, at_cycle=100),
        FaultSpec(kind="ni_buffer", node=27, buffer=0,
                  at_cycle=200, heal_cycle=400, net="any"),
        FaultSpec(kind="mesh_link", node=1, peer=2, at_cycle=50),
    ))

    def test_json_round_trip(self):
        assert FaultPlan.from_json(self.PLAN.to_json()) == self.PLAN

    def test_bare_list_accepted(self):
        text = json.dumps([{"kind": "eir_link", "at_cycle": 5}])
        plan = FaultPlan.from_json(text)
        assert plan.faults == (FaultSpec(kind="eir_link", at_cycle=5),)

    def test_file_round_trip(self, tmp_path):
        path = self.PLAN.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == self.PLAN

    def test_load_names_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="broken.json"):
            FaultPlan.load(path)
        with pytest.raises(ValueError, match="missing.json"):
            FaultPlan.load(tmp_path / "missing.json")

    def test_parse_faults_arg_inline_and_path(self, tmp_path):
        inline = parse_faults_arg('[{"kind": "eir_link"}]')
        assert inline == (FaultSpec(kind="eir_link"),)
        path = self.PLAN.save(tmp_path / "plan.json")
        assert parse_faults_arg(str(path)) == self.PLAN.faults
        assert parse_faults_arg("") == ()

    def test_faults_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", '[{"kind": "eir_link"}]')
        assert settings.from_env("faults") == (FaultSpec(kind="eir_link"),)
        monkeypatch.delenv("REPRO_FAULTS")
        assert settings.from_env("faults") == ()


# ----------------------------------------------------------------------
# Mechanism layer: one NI on one network
# ----------------------------------------------------------------------
class _OneNetFabric:
    """Minimal fabric stand-in: one network playing every role."""

    def __init__(self, net):
        self.net = net

    def networks_by_role(self, role):
        return [self.net]


def make_net(width=8, **kwargs):
    kwargs.setdefault("flit_bytes", 16)
    kwargs.setdefault("vc_classes", [(0, 1)])
    return Network("t", Grid(width), **kwargs)


def reply(pid, src, dst, size=5):
    return Packet(pid, PacketType.READ_REPLY, src, dst, size, 0, vc_class=0)


def drain(net, nodes, cycles=2000, injector=None):
    out = []
    for _ in range(cycles):
        if injector is not None:
            injector.on_cycle(net.cycle + 1)
        net.tick()
        assert_healthy(net)
        for n in nodes:
            while True:
                p = net.pop_delivered(n)
                if p is None:
                    break
                out.append(p)
        if net.idle():
            break
    return out


def build_equinox_ni(net):
    grid = net.grid
    cb = grid.node(3, 3)
    groups = (
        make_group(
            cb,
            {
                (1, 0): grid.node(5, 3),
                (-1, 0): grid.node(1, 3),
                (0, 1): grid.node(3, 5),
                (0, -1): grid.node(3, 1),
            },
        ),
    )
    design = EirDesign(grid=grid, placement=(cb,), groups=groups)
    return EquiNoxInterface(net, cb, design), cb


class TestBufferQuarantine:
    def test_idle_buffer_quarantined_and_bypassed(self):
        net = make_net()
        ni, cb = build_equinox_ni(net)
        east_eir = net.grid.node(5, 3)
        injector = FaultInjector(
            _OneNetFabric(net),
            FaultPlan((FaultSpec(kind="eir_link", node=cb, peer=east_eir,
                                 at_cycle=1),)),
        )
        injector.on_cycle(1)
        failed = ni.buffers[ni._eir_buffer[east_eir]]
        assert failed.failed and not failed.available
        assert injector.summary()["applied"] == 1
        # Traffic for the east EIR's quadrant still flows via survivors.
        dst = net.grid.node(7, 3)
        for pid in range(4):
            ni.enqueue(reply(pid + 1, cb, dst))
        received = drain(net, [dst], injector=injector)
        assert len(received) == 4
        assert all(p.inject_router != east_eir for p in received)

    def test_mid_stream_failure_keeps_audits_green(self):
        """Fail a busy EIR buffer: ledger balances, packets survive."""
        net = make_net()
        ni, cb = build_equinox_ni(net)
        east_eir = net.grid.node(5, 3)
        dst = net.grid.node(7, 3)
        for pid in range(6):
            ni.enqueue(reply(pid + 1, cb, dst))
        injector = FaultInjector(
            _OneNetFabric(net),
            FaultPlan((FaultSpec(kind="eir_link", node=cb, peer=east_eir,
                                 at_cycle=4),)),
        )
        received = drain(net, [dst], injector=injector)
        assert len(received) == 6  # every packet still arrives
        # Quarantine is complete: buffer failed, emptied, VC released.
        # (Conservation was asserted after every cycle inside drain.)
        failed = ni.buffers[ni._eir_buffer[east_eir]]
        assert failed.failed
        assert not failed.flits and failed.cur_vc is None

    def test_all_eirs_down_falls_back_to_local(self):
        """With every EIR link failed, the NI is a single-injection NI."""
        net = make_net()
        ni, cb = build_equinox_ni(net)
        specs = tuple(
            FaultSpec(kind="eir_link", node=cb, peer=eir, at_cycle=1)
            for eir in ni._eir_buffer
        )
        injector = FaultInjector(_OneNetFabric(net), FaultPlan(specs))
        injector.on_cycle(1)
        dst = net.grid.node(7, 7)
        for pid in range(5):
            ni.enqueue(reply(pid + 1, cb, dst))
        received = drain(net, [dst], injector=injector)
        assert len(received) == 5
        assert all(p.inject_router == cb for p in received)

    def test_transient_fault_heals(self):
        net = make_net()
        ni, cb = build_equinox_ni(net)
        east_eir = net.grid.node(5, 3)
        idx = ni._eir_buffer[east_eir]
        injector = FaultInjector(
            _OneNetFabric(net),
            FaultPlan((FaultSpec(kind="eir_link", node=cb, peer=east_eir,
                                 at_cycle=1, heal_cycle=5),)),
        )
        injector.on_cycle(1)
        assert ni.buffers[idx].failed
        injector.on_cycle(5)
        assert not ni.buffers[idx].failed
        assert injector.summary()["healed"] == 1
        dst = net.grid.node(7, 3)
        for pid in range(3):
            ni.enqueue(reply(pid + 1, cb, dst))
        received = drain(net, [dst], injector=injector)
        assert len(received) == 3
        # The healed east EIR serves its axis destination again.
        assert any(p.inject_router == east_eir for p in received)

    def test_unmatched_specs_are_recorded_not_fatal(self):
        net = make_net()
        build_equinox_ni(net)
        spec = FaultSpec(kind="ni_buffer", node=62, buffer=0)
        injector = FaultInjector(_OneNetFabric(net), FaultPlan((spec,)))
        assert injector.unmatched == [spec]
        with pytest.raises(ValueError, match="matched nothing"):
            FaultInjector(_OneNetFabric(net), FaultPlan((spec,)),
                          strict=True)


# ----------------------------------------------------------------------
# System layer: end-to-end degradation
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_armed_plan_is_bit_identical(self):
        base = run_experiment("EquiNox", "hotspot", QUICK)
        armed = run_experiment(
            "EquiNox", "hotspot",
            ExperimentConfig(
                quota=QUICK.quota, mcts_iterations=QUICK.mcts_iterations,
                validate=QUICK.validate,
                faults=(FaultSpec(kind="mesh_link", node=0, peer=1,
                                  at_cycle=10 ** 9, net="any"),),
            ),
        )
        assert armed.stats_fingerprint == base.stats_fingerprint
        assert armed.cycles == base.cycles
        assert armed.flits_dropped == 0

    def test_heal_immediately_plan_is_bit_identical(self):
        """Specs that fire at cycle 0 and heal before any traffic moves
        must leave the run bit-identical to having no plan at all."""
        base = run_experiment("EquiNox", "hotspot", QUICK)
        healed = run_experiment(
            "EquiNox", "hotspot",
            ExperimentConfig(
                quota=QUICK.quota, mcts_iterations=QUICK.mcts_iterations,
                validate=QUICK.validate,
                faults=(
                    FaultSpec(kind="mesh_link", node=0, peer=1,
                              at_cycle=0, heal_cycle=1, net="any"),
                    FaultSpec(kind="eir_link", at_cycle=0, heal_cycle=1),
                    FaultSpec(kind="router_port", node=0, port=0,
                              at_cycle=0, heal_cycle=1, net="any"),
                ),
            ),
        )
        assert healed.stats_fingerprint == base.stats_fingerprint
        assert healed.cycles == base.cycles
        assert healed.flits_dropped == 0

    def test_eir_link_degradation_monotonic_never_zero(self):
        """Losing 1..4 EIR links per CB degrades but never kills EquiNox."""
        design = cache.equinox_design(
            8, 8, iterations_per_level=QUICK.mcts_iterations, seed=0
        )
        base = run_experiment("EquiNox", "hotspot", QUICK)
        cycles = [base.cycles]
        for k in (1, 2, 3, 4):
            specs = eir_link_faults(design.eir_design, k, at_cycle=100)
            result = run_experiment(
                "EquiNox", "hotspot",
                ExperimentConfig(
                    quota=QUICK.quota,
                    mcts_iterations=QUICK.mcts_iterations,
                    validate=QUICK.validate, faults=specs,
                ),
            )
            assert result.ipc > 0
            assert result.instructions == base.instructions
            cycles.append(result.cycles)
        # Monotonic degradation (ties allowed: light load may absorb a
        # lost link entirely).
        assert cycles == sorted(cycles)
        assert cycles[-1] > cycles[0]

    def test_mesh_link_fault_routes_around(self):
        result = run_experiment(
            "EquiNox", "hotspot",
            ExperimentConfig(
                quota=QUICK.quota, mcts_iterations=QUICK.mcts_iterations,
                validate=QUICK.validate,
                faults=(
                    FaultSpec(kind="mesh_link", node=27, peer=28,
                              at_cycle=50, net="any"),
                    FaultSpec(kind="router_port", node=35, port=0,
                              at_cycle=50, net="any"),
                ),
            ),
        )
        assert result.ipc > 0

    def test_env_plan_applies(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '[{"kind": "eir_link", "at_cycle": 100},'
            ' {"kind": "eir_link", "at_cycle": 100}]',
        )
        result = run_experiment("EquiNox", "hotspot", QUICK)
        assert result.ipc > 0

    def test_random_fault_schedules_conserve(self):
        """Transient injection-side fault schedules, audits on.

        Three schedules of four faults each, once drawn at random: EIR
        links of the 8x8 design's own groups and CB NI buffers, all
        firing and healing while traffic flows.
        """
        schedules = (
            (("ni_buffer", 39, None, 118, 313),
             ("eir_link", 39, 45, 110, 286),
             ("ni_buffer", 54, None, 157, 231),
             ("eir_link", 17, 34, 271, 321)),
            (("ni_buffer", 39, None, 78, 151),
             ("eir_link", 13, 22, 178, 282),
             ("ni_buffer", 40, None, 270, 420),
             ("ni_buffer", 2, None, 328, 491)),
            (("ni_buffer", 59, None, 171, 360),
             ("eir_link", 40, 56, 370, 568),
             ("ni_buffer", 59, None, 182, 373),
             ("eir_link", 13, 37, 326, 516)),
        )
        for schedule in schedules:
            specs = tuple(
                FaultSpec(kind=kind, node=node, peer=peer,
                          buffer=0 if kind == "ni_buffer" else None,
                          at_cycle=at, heal_cycle=heal)
                for kind, node, peer, at, heal in schedule
            )
            for scheme in ("EquiNox", "SeparateBase"):
                result = run_experiment(
                    scheme, "hotspot",
                    ExperimentConfig(
                        quota=QUICK.quota,
                        mcts_iterations=QUICK.mcts_iterations,
                        validate=32, faults=specs,
                    ),
                )
                # validate=32 audits (incl. the dropped-flit ledger)
                # every 32 cycles; reaching here means all were green.
                assert result.ipc > 0
