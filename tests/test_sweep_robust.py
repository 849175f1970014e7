"""Sweep robustness: timeouts, retries, crash-safe resume from the store."""

import json
import signal
import time

import pytest

import repro
from repro import settings
from repro.harness import cache, runner
from repro.harness.experiment import ExperimentConfig, config_digest
from repro.harness.runner import (
    CellTimeout,
    _wall_clock_limit,
    retry_seed,
    run_sweep,
    sweep,
)
from repro.harness.store import DirectoryResultStore
from repro.noc.faults import parse_faults_arg

CFG = ExperimentConfig(quota=8, mcts_iterations=10)
GRID = dict(schemes=["EquiNox", "SeparateBase"], benchmarks=["hotspot"])


def _cells():
    return runner.expand_grid(GRID["schemes"], GRID["benchmarks"], CFG)


class TestWallClockLimit:
    def test_fires_on_overrun(self):
        with pytest.raises(CellTimeout):
            with _wall_clock_limit(0.05):
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    pass

    def test_noop_when_disabled(self):
        with _wall_clock_limit(0):
            pass

    def test_timer_cleared_after_body(self):
        with _wall_clock_limit(0.2):
            pass
        time.sleep(0.25)  # the alarm must not fire after the block

    def test_outer_itimer_survives_inner_limit(self):
        # Regression: teardown used to cancel a previously armed itimer
        # along with its own, silently disabling any outer timeout.
        fired = []
        previous = signal.signal(
            signal.SIGALRM, lambda s, f: fired.append(True)
        )
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with _wall_clock_limit(0.05):
                pass
            remaining, _interval = signal.getitimer(signal.ITIMER_REAL)
            assert remaining > 0  # outer timer re-armed, not cancelled
            deadline = time.monotonic() + 3
            while not fired and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fired  # ... and it still goes off
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_expired_outer_itimer_fires_on_exit(self):
        # An outer deadline that passes while the inner limit is armed
        # must fire right after teardown instead of being dropped.
        fired = []
        previous = signal.signal(
            signal.SIGALRM, lambda s, f: fired.append(True)
        )
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with _wall_clock_limit(5.0):
                deadline = time.monotonic() + 0.15
                while time.monotonic() < deadline:
                    pass
            deadline = time.monotonic() + 3
            while not fired and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_nested_limits_outer_still_fires(self):
        with pytest.raises(CellTimeout):
            with _wall_clock_limit(0.2):
                with _wall_clock_limit(0.05):
                    pass  # inner finishes without tripping
                deadline = time.monotonic() + 3
                while time.monotonic() < deadline:
                    pass


class TestRetries:
    def test_retry_seed_is_deterministic_and_distinct(self):
        assert retry_seed(7, 1) == retry_seed(7, 1)
        assert retry_seed(7, 1) != retry_seed(7, 2)
        assert retry_seed(7, 1) != 7

    def test_second_attempt_recovers(self, monkeypatch):
        calls = []

        def flaky(scheme, benchmark, config):
            calls.append(config.seed)
            if len(calls) == 1:
                raise RuntimeError("transient")
            from repro.harness.metrics import ExperimentResult, LatencyNs

            return ExperimentResult(
                scheme=scheme, benchmark=benchmark, width=8, cycles=1,
                instructions=1, energy_nj=0.0, area_mm2=0.0,
                latency=LatencyNs(), reply_bits_fraction=0.0,
            )

        monkeypatch.setattr(runner, "run_experiment", flaky)
        (outcome,) = run_sweep(
            _cells()[:1], retries=2, backoff_s=0.0
        ).outcomes
        assert outcome.ok
        assert outcome.attempts == 2
        # The retry ran under a fresh deterministic seed.
        assert calls == [CFG.seed, retry_seed(CFG.seed, 1)]
        assert outcome.seed_used == retry_seed(CFG.seed, 1)

    def test_exhausted_retries_record_failure(self, monkeypatch):
        def always(scheme, benchmark, config):
            raise RuntimeError("permanent")

        monkeypatch.setattr(runner, "run_experiment", always)
        (outcome,) = run_sweep(
            _cells()[:1], retries=1, backoff_s=0.0
        ).outcomes
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.error_type == "RuntimeError"
        assert "permanent" in outcome.error

    def test_timeout_recorded(self, monkeypatch):
        def hang(scheme, benchmark, config):
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                pass

        monkeypatch.setattr(runner, "run_experiment", hang)
        start = time.monotonic()
        (outcome,) = run_sweep(_cells()[:1], cell_timeout=0.1).outcomes
        assert time.monotonic() - start < 5
        assert not outcome.ok
        assert outcome.timed_out
        assert outcome.error_type == "CellTimeout"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(scheme, benchmark, config):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_experiment", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_cells()[:1], retries=5, backoff_s=0.0)

    def test_system_exit_propagates(self, monkeypatch):
        def exiting(scheme, benchmark, config):
            raise SystemExit(3)

        monkeypatch.setattr(runner, "run_experiment", exiting)
        with pytest.raises(SystemExit):
            run_sweep(_cells()[:1], retries=5, backoff_s=0.0)

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            run_sweep([])
        monkeypatch.setenv("REPRO_RETRIES", "2")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "bogus")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            run_sweep([])
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        report = run_sweep([])  # empty grid: knobs parsed, nothing run
        assert report.outcomes == []

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_timeout_rejected(self, monkeypatch, raw):
        # Regression: float("nan") defeats the ``seconds <= 0`` guard
        # (nan compares false to everything) and would reach
        # setitimer; inf would arm a timer that never fires.  Both
        # must be loud config errors, not silent misbehaviour.
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", raw)
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT.*finite"):
            run_sweep([])

    def test_negative_timeout_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "-1.5")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT.*>= 0"):
            run_sweep([])

    def test_negative_retries_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "-3")
        with pytest.raises(ValueError, match="REPRO_RETRIES.*>= 0"):
            run_sweep([])

    def test_env_guard_helpers(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert settings.from_env("cell_timeout") == 0.0
        assert settings.from_env("retries") == 0
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", " 2.5 ")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        assert settings.from_env("cell_timeout") == 2.5
        assert settings.from_env("retries") == 4


class TestJournal:
    """The resume contract the sweep journal used to hold, now the
    result store's: resuming is re-running with the same store."""

    @pytest.fixture
    def executed(self, monkeypatch):
        """Labels of the cells that actually ran (store hits don't)."""
        ran = []
        real = runner.run_experiment

        def spy(scheme, benchmark, config):
            ran.append((scheme, benchmark))
            return real(scheme, benchmark, config)

        monkeypatch.setattr(runner, "run_experiment", spy)
        return ran

    def test_config_digest_sensitivity(self):
        a = config_digest(CFG)
        assert a == config_digest(ExperimentConfig(quota=8,
                                                   mcts_iterations=10))
        assert a != config_digest(ExperimentConfig(quota=9,
                                                   mcts_iterations=10))

    def test_records_and_resume_bit_identical(self, tmp_path, executed):
        store = DirectoryResultStore(tmp_path)
        full = sweep(**GRID, config=CFG, store=store)
        assert all(o.ok for o in full.outcomes)
        assert len(executed) == len(store) == len(full.outcomes)
        executed.clear()
        resumed = sweep(**GRID, config=CFG, store=store)
        assert executed == []  # served entirely from the store
        for before, after in zip(full.outcomes, resumed.outcomes):
            assert after.result == before.result  # bit-identical restore

    def test_partial_journal_resumes_missing_cells(self, tmp_path, executed):
        store = DirectoryResultStore(tmp_path)
        full = sweep(**GRID, config=CFG, store=store)
        # Simulate a kill before the second cell was recorded.
        second = full.outcomes[1].cell
        lost = store.query(scheme=second.scheme)[0]["key"]
        (tmp_path / f"result-{lost}.json").unlink()
        executed.clear()
        resumed = sweep(**GRID, config=CFG, store=store)
        assert executed == [second.key]
        for before, after in zip(full.outcomes, resumed.outcomes):
            assert after.result == before.result
        # The re-run cell was stored again: resume is idempotent.
        assert len(store) == 2

    def test_stale_config_not_reused(self, tmp_path, executed):
        store = DirectoryResultStore(tmp_path)
        sweep(**GRID, config=CFG, store=store)
        executed.clear()
        other = ExperimentConfig(quota=9, mcts_iterations=10)
        sweep(**GRID, config=other, store=store)
        assert len(executed) == 2
        assert len(store) == 4

    def test_env_fault_plan_is_part_of_the_key(
        self, executed, monkeypatch, tmp_path
    ):
        # Regression: REPRO_FAULTS used to be read below the point where
        # a cell is keyed, so a faulted run was filed under the
        # fault-free address and later served to a clean sweep.
        plan = (
            '[{"kind": "eir_link", "at_cycle": 50},'
            ' {"kind": "eir_link", "at_cycle": 50}]'
        )
        config = ExperimentConfig(quota=20, mcts_iterations=10)
        cells = [runner.SweepCell("EquiNox", "hotspot", config)]
        store = DirectoryResultStore(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", plan)
        faulted = run_sweep(cells, store=store).outcomes[0].result
        monkeypatch.delenv("REPRO_FAULTS")
        executed.clear()
        clean = run_sweep(cells, store=store).outcomes[0].result
        assert executed == [("EquiNox", "hotspot")]  # not a store hit
        assert clean.stats_fingerprint != faulted.stats_fingerprint
        assert clean == runner.run_experiment("EquiNox", "hotspot", config)
        # The variable and the argument are one knob: the identical
        # plan passed as ``faults=`` is the faulted run's store entry.
        executed.clear()
        explicit = ExperimentConfig(
            quota=20, mcts_iterations=10, faults=parse_faults_arg(plan)
        )
        again = run_sweep(
            [runner.SweepCell("EquiNox", "hotspot", explicit)], store=store
        )
        assert executed == []
        assert again.outcomes[0].result == faulted
        assert len(store) == 2

    def test_other_version_not_reused(self, tmp_path, executed, monkeypatch):
        # The journal key had no version in it; the store address does,
        # so a behaviour-changing release never serves stale results.
        store = DirectoryResultStore(tmp_path)
        sweep(**GRID, config=CFG, store=store)
        executed.clear()
        monkeypatch.setattr(repro, "__version__", "0.0.0+other")
        sweep(**GRID, config=CFG, store=store)
        assert len(executed) == 2
        assert len(store) == 4

    def test_failed_cells_rerun_on_resume(self, tmp_path, monkeypatch):
        store = DirectoryResultStore(tmp_path)

        def boom(scheme, benchmark, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "run_experiment", boom)
        failed = run_sweep(_cells(), store=store)
        assert not any(o.ok for o in failed.outcomes)
        assert len(store) == 0  # failures are never stored
        monkeypatch.undo()
        resumed = run_sweep(_cells(), store=store)
        assert all(o.ok for o in resumed.outcomes)
        assert len(store) == 2

    def test_corrupt_entry_evicted_and_rerun(self, tmp_path, executed):
        store = DirectoryResultStore(tmp_path)
        full = sweep(**GRID, config=CFG, store=store)
        first = full.outcomes[0].cell
        torn = store.query(scheme=first.scheme)[0]["key"]
        (tmp_path / f"result-{torn}.json").write_text("{torn")
        executed.clear()
        cache.clear()  # resets the eviction counter
        resumed = sweep(**GRID, config=CFG, store=store)
        assert executed == [first.key]
        assert cache.corrupt_evictions() == 1
        assert resumed.outcomes[0].result == full.outcomes[0].result
        assert len(store) == 2  # rewritten by the re-run

    def test_fleet_rejects_store_it_cannot_reopen(self, monkeypatch):
        # Regression: jobs>1 used to drop a root-less store silently and
        # run the fleet with no store at all.
        from repro.harness import service

        def must_not_spawn(*args, **kwargs):
            raise AssertionError("fleet spawned before the store check")

        class RootlessStore:
            """A store with no ``.root`` for worker processes to reopen."""

            def __init__(self):
                self.entries = {}

            def get(self, key):
                return self.entries.get(key)

            def put(self, record):
                self.entries[record["key"]] = record

        monkeypatch.setattr(service, "spawn_fleet", must_not_spawn)
        with pytest.raises(ValueError, match="RootlessStore"):
            run_sweep(_cells(), jobs=2, store=RootlessStore())
        # Serially the same store works: the worker loop runs inline.
        store = RootlessStore()
        assert all(o.ok for o in run_sweep(_cells(), store=store).outcomes)
        assert len(store.entries) == 2



class TestFleetFallback:
    """``run_sweep`` finishing in the submitting process.

    Either the fleet cannot start (``spawn_fleet`` raises ``OSError``),
    or every worker is SIGKILLed holding a lease, so the supervisor
    force-expires the leases and drains the bus serially.  Neither
    path may cost a retry or change a result.
    """

    @pytest.mark.parametrize("mode", ["spawn_fails", "fleet_killed"])
    def test_sweep_finishes_serially(self, monkeypatch, capsys, mode):
        from dataclasses import replace

        from repro.harness import service

        serial = run_sweep(_cells(), jobs=1)
        spawn_fleet = service.spawn_fleet

        def spawn(bus_path, workers, policy, options, store_root=None):
            if mode == "spawn_fails":
                raise OSError("no processes left")
            return spawn_fleet(
                bus_path, workers, policy,
                replace(options, chaos_kill_after=1), store_root=store_root,
            )

        monkeypatch.setattr(service, "spawn_fleet", spawn)
        report = run_sweep(_cells(), jobs=2, progress=True)
        assert [(o.ok, o.attempts) for o in report.outcomes] == [(True, 1)] * 2
        assert [o.result.stats_fingerprint for o in report.outcomes] == [
            o.result.stats_fingerprint for o in serial.outcomes
        ]
        expected = {
            "spawn_fails": "worker fleet unavailable",
            "fleet_killed": "worker fleet exited early",
        }[mode]
        assert expected in capsys.readouterr().out


class TestCacheEvictions:
    def test_corrupt_entry_counted_and_removed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        assert cache.corrupt_evictions() == 0
        cache.placement("diamond", 8)
        (entry,) = tmp_path.glob("placement-*.json")
        cache.clear()  # drop tier 1 so the next read hits disk
        entry.write_text("{not json")
        result = cache.placement("diamond", 8)
        assert result.nodes  # recomputed fine
        assert cache.corrupt_evictions() == 1
        # Evicted then rewritten by the recompute.
        assert json.loads(entry.read_text())["nodes"]
        cache.clear()

    def test_semantically_corrupt_design_evicted(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        cache.placement("diamond", 8)
        (entry,) = tmp_path.glob("placement-*.json")
        cache.clear()
        entry.write_text(json.dumps({"name": "diamond"}))  # missing keys
        cache.placement("diamond", 8)
        assert cache.corrupt_evictions() == 1
        cache.clear()
        assert cache.corrupt_evictions() == 0
