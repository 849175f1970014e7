"""Differential tests for the active-set scheduler.

The active scheduler (tick only components with work, fast-forward
quiescent gaps) must be *bit-identical* to the dense oracle (walk every
NI and router every cycle): same stats fingerprints, same cycle counts,
same stall counters, same audit outcomes, same watchdog trip cycle.
These tests pin that contract across all schemes, with conservation
audits armed and with a firing fault plan, plus the MCTS evaluation
memoization's equivalence to direct evaluation.
"""

import random

import pytest

from repro import settings
from repro.core import evaluation
from repro.core.grid import Grid
from repro.core.mcts import EirSearch, SearchConfig
from repro.core.placement import nqueen_best
from repro.gpu.system import SimulationStall, System, SystemConfig
from repro.harness.experiment import (
    ExperimentConfig,
    build_fabric,
    run_experiment,
)
from repro.noc.faults import FaultSpec
from repro.noc.network import resolve_scheduler
from repro.schemes import SCHEME_ORDER, get_spec
from repro.workloads import profiles
from repro.workloads.synthetic import run_uniform

QUICK = dict(quota=10, mcts_iterations=10, validate=64)


def _config(scheduler, faults=()):
    return ExperimentConfig(faults=tuple(faults), scheduler=scheduler,
                            **QUICK)


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------
class TestResolveScheduler:
    def test_default_is_active(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        assert settings.resolve(ExperimentConfig()).scheduler == ""
        assert resolve_scheduler() == "active"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", " Dense ")
        assert settings.resolve(ExperimentConfig()).scheduler == "dense"
        # Below the harness edge the variable is not consulted.
        assert resolve_scheduler() == "active"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "dense")
        config = ExperimentConfig(scheduler="active")
        assert settings.resolve(config) is config

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown scheduler"):
            resolve_scheduler("lazy")
        monkeypatch.setenv("REPRO_SCHEDULER", "lazy")
        with pytest.raises(ValueError, match="REPRO_SCHEDULER unknown sched"):
            settings.resolve(ExperimentConfig())

    def test_fabric_exposes_choice(self):
        fabric = build_fabric(
            "SeparateBase", ExperimentConfig(scheduler="dense", **QUICK)
        )
        assert fabric.scheduler == "dense"
        for net, _ratio, _role in fabric.networks:
            assert net.scheduler == "dense"


# ----------------------------------------------------------------------
# Full-system differential: every scheme, audits armed, faults firing
# ----------------------------------------------------------------------
class TestSchedulerDifferential:
    # Fault plans are a mesh-only capability; the loop baselines get an
    # equivalent scheduler differential (without faults) in
    # test_schemes.py::TestLoopSchemes.
    @pytest.mark.parametrize(
        "scheme",
        [s for s in SCHEME_ORDER if get_spec(s).supports_faults],
    )
    def test_scheme_bit_identical_with_firing_faults(self, scheme):
        # Fault the first CB's reply-injection buffer mid-run (firing),
        # and arm a never-firing mesh fault: both the fault machinery
        # and the armed-only path must leave the schedulers in lockstep.
        placement = build_fabric(scheme, _config("dense")).placement
        faults = (
            FaultSpec(kind="ni_buffer", node=placement[0], buffer=0,
                      net="reply", at_cycle=50, heal_cycle=400),
            FaultSpec(kind="mesh_link", node=0, peer=1, net="any",
                      at_cycle=10 ** 9),
        )
        results = {
            sched: run_experiment(scheme, "hotspot",
                                  _config(sched, faults))
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
            fabric = build_fabric("SeparateBase", _config(sched))
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
            fabric = build_fabric("SeparateBase", _config(sched))
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
# MCTS evaluation memoization
# ----------------------------------------------------------------------
class TestIncrementalEvaluation:
    def test_incremental_matches_direct_bit_for_bit(self):
        grid = Grid(8)
        placement = nqueen_best(grid, 8).nodes
        search = EirSearch(grid, placement,
                           SearchConfig(iterations_per_level=5, seed=3))
        incremental = evaluation.IncrementalEvaluator(grid, placement)
        for _ in range(20):
            state = search.rollout(())
            inc = incremental.evaluate(state)
            direct = evaluation.evaluate(search._design(state))
            assert inc.score == direct.score
            assert inc.raw == direct.raw
            assert inc.normalized == direct.normalized

    def test_search_reports_nonzero_hit_rate(self):
        grid = Grid(8)
        placement = nqueen_best(grid, 8).nodes
        result = EirSearch(
            grid, placement, SearchConfig(iterations_per_level=40, seed=0)
        ).run()
        assert result.eval_cache_lookups > 0
        assert result.eval_cache_hits > 0
        assert 0.0 < result.eval_cache_hit_rate < 1.0
        assert (result.designs_evaluated
                == result.eval_cache_lookups - result.eval_cache_hits)

    def test_fragment_reuse_across_designs(self):
        grid = Grid(8)
        placement = nqueen_best(grid, 8).nodes
        search = EirSearch(grid, placement,
                           SearchConfig(iterations_per_level=5, seed=11))
        incremental = evaluation.IncrementalEvaluator(grid, placement)
        rng = random.Random(5)
        base = list(search.rollout(()))
        incremental.evaluate(base)
        fragments_after_first = len(incremental._fragments)
        # Replace one CB's group; only that CB's fragment is new.
        depth = rng.randrange(len(base))
        options = [g for g in search.actions(base[:depth])
                   if g != base[depth]]
        if options:
            mutated = base[:depth] + [rng.choice(options)]
            while not search.is_terminal(mutated):
                mutated.append(search.rollout(tuple(mutated))[len(mutated)])
            incremental.evaluate(mutated)
            grown = len(incremental._fragments) - fragments_after_first
            assert grown >= 1  # new fragments only for changed groups
            assert grown <= len(placement) - depth
