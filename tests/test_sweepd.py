"""The leased sweep service: workers, crashes, dead letters, the store.

The acceptance test for the whole distributed layer lives here: a
fleet with a worker SIGKILLed mid-cell must converge on a sweep whose
``stats_fingerprint``s are bit-identical to the serial runner's, with
the crash visible only as an extra delivery — never as a consumed
retry or a different seed.
"""

import multiprocessing
import signal
from dataclasses import asdict

import pytest

from repro import settings
from repro.harness import runner, service
from repro.harness.bus import (
    DONE,
    REASON_RETRIES,
    BusPolicy,
    MemoryBus,
    SqliteBus,
)
from repro.harness.experiment import ExperimentConfig, config_digest
from repro.harness.runner import expand_grid, retry_seed, run_sweep
from repro.harness.service import (
    WorkerOptions,
    cell_from_payload,
    cell_payload,
    task_id_for,
    worker_loop,
)
from repro.harness.store import DirectoryResultStore, make_record

CFG = ExperimentConfig(quota=8, mcts_iterations=10)
SCHEMES = ["SingleBase", "EquiNox"]
BENCHMARKS = ["hotspot"]


def _cells():
    return expand_grid(SCHEMES, BENCHMARKS, CFG)


_MEMO = {}


def _fake_result():
    """A real result to hand back from stubbed executions (memoised)."""
    if "result" not in _MEMO:
        _MEMO["result"] = run_sweep([_cells()[0]]).outcomes[0].result
    return _MEMO["result"]


class TestPayloads:
    def test_cell_roundtrip_preserves_digest(self):
        cell = _cells()[1]
        rebuilt = cell_from_payload(cell_payload(cell))
        assert rebuilt.scheme == cell.scheme
        assert rebuilt.benchmark == cell.benchmark
        assert config_digest(rebuilt.config) == config_digest(cell.config)

    def test_payload_validation(self):
        with pytest.raises(ValueError, match="schema"):
            cell_from_payload({"schema": 99})
        with pytest.raises(ValueError, match="scheme"):
            cell_from_payload({"schema": 1, "benchmark": "hotspot"})
        with pytest.raises(ValueError, match="unknown config"):
            cell_from_payload({
                "schema": 1, "scheme": "EquiNox", "benchmark": "hotspot",
                "config": {"bogus_knob": 1},
            })

    def test_task_ids_stable_and_greppable(self):
        cells = _cells()
        ids = [task_id_for(i, c) for i, c in enumerate(cells)]
        assert ids == [task_id_for(i, c) for i, c in enumerate(cells)]
        assert ids[0].startswith("00000-SingleBase-hotspot-")
        assert len(set(ids)) == len(ids)


class TestSubmitStatus:
    def test_submit_records_manifest_and_policy(self, tmp_path):
        bus = SqliteBus(tmp_path / "bus.sqlite",
                        policy=BusPolicy(retries=2, backoff_s=0.1))
        task_ids = service.submit(bus, _cells())
        assert len(task_ids) == len(_cells())
        # A later worker on another terminal adopts the recorded policy.
        reopened = service.open_submitted_bus(tmp_path / "bus.sqlite")
        assert reopened.policy == BusPolicy(retries=2, backoff_s=0.1)
        manifest = reopened.get_meta(service.MANIFEST_KEY)
        assert manifest["order"] == task_ids
        snap = service.status(bus)
        assert snap["cells"] == len(task_ids)
        assert snap["counts"]["pending"] == len(task_ids)
        assert not snap["complete"]


class TestWorkerLoop:
    def test_drains_and_reports(self, monkeypatch):
        calls = []

        result = _fake_result()

        def fake(scheme, benchmark, config):
            calls.append((scheme, config.seed))
            return result

        monkeypatch.setattr(runner, "run_experiment", fake)
        bus = MemoryBus()
        service.submit(bus, _cells())
        terminal = []
        stats = worker_loop(bus, on_terminal=terminal.append)
        assert stats.executed == 2 and stats.acked == 2
        assert [r["state"] for r in terminal] == [DONE, DONE]
        assert bus.all_terminal()
        assert [s for s, _seed in calls] == SCHEMES

    def test_poison_cell_dead_letters_with_reseed_sequence(
        self, monkeypatch
    ):
        seeds = []

        result = _fake_result()

        def poisoned(scheme, benchmark, config):
            if scheme == "EquiNox":
                seeds.append(config.seed)
                raise RuntimeError("poison")
            return result

        monkeypatch.setattr(runner, "run_experiment", poisoned)
        bus = MemoryBus(policy=BusPolicy(retries=2, backoff_s=0.0))
        service.submit(bus, _cells())
        stats = worker_loop(bus)
        # Attempts 0..retries ran the serial runner's exact seed
        # schedule before the cell was isolated.
        assert seeds == [CFG.seed, retry_seed(CFG.seed, 1),
                         retry_seed(CFG.seed, 2)]
        assert stats.acked == 1 and stats.dead == 1
        (dead,) = bus.dead_letters()
        assert dead["dead_reason"] == REASON_RETRIES
        assert dead["error_type"] == "RuntimeError"
        assert "poison" in dead["error"]
        dump = service.dead_letter_dump(dead)
        assert "EquiNox x hotspot" in dump and "poison" in dump
        # The healthy cell completed: the poison pill is isolated, not
        # fatal to the sweep.
        assert bus.counts()["done"] == 1

    def test_store_hit_short_circuits_execution(self, monkeypatch, tmp_path):
        cells = _cells()
        real = run_sweep([cells[0]]).outcomes[0].result
        store = DirectoryResultStore(tmp_path)
        store.put(make_record(cells[0].scheme, cells[0].benchmark,
                              cells[0].config, real, seed_used=CFG.seed))

        def must_not_run(scheme, benchmark, config):
            raise AssertionError("store hit must skip execution")

        monkeypatch.setattr(runner, "run_experiment", must_not_run)
        bus = MemoryBus()
        service.submit(bus, [cells[0]])
        stats = worker_loop(bus, store=store)
        assert stats.store_hits == 1 and stats.executed == 0
        record = bus.record(task_id_for(0, cells[0]))
        assert record["state"] == DONE
        assert record["result"]["stats_fingerprint"] == \
            real.stats_fingerprint

    def test_fresh_results_are_stored(self, tmp_path):
        store = DirectoryResultStore(tmp_path)
        bus = MemoryBus()
        service.submit(bus, [_cells()[0]])
        worker_loop(bus, store=store)
        assert len(store) == 1
        (record,) = store.query(scheme="SingleBase")
        assert record["config_digest"] == config_digest(CFG)

    def test_submitter_decides_not_the_worker(self, monkeypatch, tmp_path):
        # Extends test_hermetic_env_blocks_leaking_knobs to the lease
        # path: a cell runs under its payload's config, whatever the
        # draining worker's environment says.
        config = ExperimentConfig(quota=20, mcts_iterations=10)
        oracle = runner.run_experiment("EquiNox", "hotspot", config)
        bus = MemoryBus()
        (task_id,) = service.submit(
            bus, [runner.SweepCell("EquiNox", "hotspot", config)]
        )  # under a clean environment
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '[{"kind": "eir_link", "at_cycle": 50},'
            ' {"kind": "eir_link", "at_cycle": 50}]',
        )
        leaky = runner.run_experiment("EquiNox", "hotspot", config)
        assert leaky.stats_fingerprint != oracle.stats_fingerprint
        store = DirectoryResultStore(tmp_path)
        worker_loop(bus, store=store)
        result = bus.record(task_id)["result"]
        assert result["stats_fingerprint"] == oracle.stats_fingerprint
        assert result["telemetry"] is None
        # ... and it is filed under the clean key, where it belongs.
        (record,) = store.query(scheme="EquiNox")
        assert record["config_digest"] == config_digest(config)

    def test_worker_cli_resolves_cell_timeout(self, tmp_path, monkeypatch):
        from repro.cli import main

        seen = []
        monkeypatch.setattr(
            service, "worker_loop",
            lambda bus, **kwargs: seen.append(kwargs["options"])
            or service.WorkerStats(),
        )
        argv = ["sweepd", "worker", "--bus", str(tmp_path / "bus.sqlite"),
                "--store", "off"]
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "7.5")
        assert main(argv) == 0
        assert main(argv + ["--cell-timeout", "2"]) == 0  # the flag wins
        assert [o.cell_timeout for o in seen] == [7.5, 2.0]
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "nan")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT.*finite"):
            main(argv)

    def test_chaos_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEPD_CHAOS_KILL", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_SWEEPD_CHAOS_KILL "
                                             "must be an integer"):
            settings.from_env("chaos_kill_after")
        monkeypatch.setenv("REPRO_SWEEPD_CHAOS_KILL", "3")
        assert settings.from_env("chaos_kill_after") == 3


class TestOutcomes:
    def test_outcome_from_record_bit_identical(self):
        cells = _cells()
        serial = run_sweep(cells)
        bus = MemoryBus()
        service.submit(bus, cells)
        worker_loop(bus)
        for index, (cell, oracle) in enumerate(
            zip(cells, serial.outcomes)
        ):
            record = bus.record(task_id_for(index, cell))
            outcome = service.outcome_from_record(cell, record)
            assert outcome.ok
            assert outcome.result == oracle.result
            assert outcome.attempts == 1
            assert outcome.seed_used == oracle.seed_used

    def test_fingerprints_view(self):
        bus = MemoryBus()
        service.submit(bus, [_cells()[0]])
        worker_loop(bus)
        prints = service.fingerprints(bus)
        (value,) = prints.values()
        assert len(value) == 64  # sha256 hex


class TestFleetChaos:
    """Real processes, real SIGKILL, real lease recovery."""

    def test_sigkilled_worker_recovers_bit_identical(self, tmp_path):
        cells = _cells()
        serial = run_sweep(cells)  # oracle (also warms the disk cache)
        oracle = {
            task_id_for(i, c): o.result.stats_fingerprint
            for i, (c, o) in enumerate(zip(cells, serial.outcomes))
        }

        bus_path = str(tmp_path / "bus.sqlite")
        policy = BusPolicy(retries=0, backoff_s=0.0, redelivery_limit=3)
        bus = SqliteBus(bus_path, policy=policy)
        task_ids = service.submit(bus, cells)

        # A worker that SIGKILLs itself right after taking its first
        # lease: the bus sees a leased task and a silent worker.
        chaos_options = WorkerOptions(lease_s=1.0, heartbeat_s=0.2,
                                      chaos_kill_after=1)
        chaos = multiprocessing.Process(
            target=service._worker_process_entry,
            args=(bus_path, asdict(policy), None, "chaos",
                  asdict(chaos_options)),
        )
        chaos.start()
        chaos.join(timeout=60)
        assert chaos.exitcode == -signal.SIGKILL

        # The dead worker holds task 0's lease; a clean worker must
        # wait out the lease, expire it, and re-run the same attempt.
        victim = bus.record(task_ids[0])
        assert victim["state"] == "leased"
        stats = worker_loop(
            bus, worker_id="clean",
            options=WorkerOptions(lease_s=1.0, heartbeat_s=0.2,
                                  poll_s=0.05),
        )
        assert stats.executed == len(cells) and stats.acked == len(cells)
        assert bus.all_terminal() and bus.counts()["done"] == len(cells)

        # The crash consumed a delivery, never a retry: same seed, and
        # the fleet's fingerprints are byte-identical to serial.
        victim = bus.record(task_ids[0])
        assert victim["deliveries"] == 2 and victim["failures"] == 0
        assert victim["seed_used"] == CFG.seed
        assert service.fingerprints(bus) == oracle
        snap = service.status(bus)
        assert snap["complete"] and snap["dead_letters"] == []


class TestRunSweepIntegration:
    def test_run_sweep_uses_store(self, monkeypatch, tmp_path):
        cells = _cells()
        store = DirectoryResultStore(tmp_path)
        first = run_sweep(cells, store=store)
        assert len(store) == len(cells)

        def must_not_run(scheme, benchmark, config):
            raise AssertionError("second sweep must come from the store")

        monkeypatch.setattr(runner, "run_experiment", must_not_run)
        second = run_sweep(cells, store=store)
        for before, after in zip(first.outcomes, second.outcomes):
            assert after.ok
            assert after.result == before.result  # bit-identical replay

    def test_fleet_matches_serial(self):
        cells = _cells()
        serial = run_sweep(cells)
        fleet = run_sweep(cells, jobs=2)
        for a, b in zip(serial.outcomes, fleet.outcomes):
            assert b.ok
            assert (a.result.stats_fingerprint
                    == b.result.stats_fingerprint)
