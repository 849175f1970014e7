"""Tests for the telemetry subsystem.

The load-bearing contracts:

* probes are read-only — a telemetry-enabled run keeps the exact same
  ``stats_fingerprint`` as a disabled one (differential);
* exports are deterministic — serial, parallel and cache-warm runs of
  one sweep produce byte-identical JSONL artifacts;
* the disabled path is (near) free — the harness carries ``None``.
"""

import json

import pytest

from repro import settings
from repro.telemetry import registry as registry_mod
from repro.harness.experiment import (
    ExperimentConfig,
    build_fabric,
    config_digest,
    resolve_interval,
    run_experiment,
    run_suite,
    run_with_fabric,
)
from repro.telemetry import (
    DEFAULT_INTERVAL,
    SeriesSampler,
    TelemetryRegistry,
    aggregate_sweep,
    dumps_record,
    experiment_filename,
    summarize_record,
    sweep_filename,
    sweep_records,
    write_json,
    write_jsonl,
)

CFG = ExperimentConfig(quota=8, mcts_iterations=10)
CFG_TEL = ExperimentConfig(quota=8, mcts_iterations=10, telemetry=25)


def read_records(path):
    """The records of a JSONL artifact."""
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


class TestIntervals:
    def test_resolve_interval_convention(self):
        assert resolve_interval(0, DEFAULT_INTERVAL) == 0
        assert resolve_interval(-3, DEFAULT_INTERVAL) == 0
        assert resolve_interval(1, DEFAULT_INTERVAL) == DEFAULT_INTERVAL
        assert resolve_interval(64, DEFAULT_INTERVAL) == 64

    def test_env_parsing(self, monkeypatch):
        def interval():
            config = settings.resolve(ExperimentConfig())
            return resolve_interval(config.telemetry, DEFAULT_INTERVAL)

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert interval() == 0
        monkeypatch.setenv("REPRO_TELEMETRY", "64")
        assert interval() == 64
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert interval() == DEFAULT_INTERVAL
        monkeypatch.setenv("REPRO_TELEMETRY", "garbage")
        with pytest.raises(ValueError, match="REPRO_TELEMETRY must be an "
                                             "integer, got 'garbage'"):
            interval()

    def test_registry_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TelemetryRegistry(interval=0)


class TestRegistry:
    def test_series_windowing_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(registry_mod, "SERIES_WINDOW", 3)
        sampler = SeriesSampler("x", lambda: 1.0)
        for cycle in (10, 20, 30, 40):
            sampler.sample(cycle)
        assert sampler.export()["cycles"] == [20, 30, 40]

    def test_series_samples_callable(self):
        state = {"v": 0}
        reg = TelemetryRegistry(interval=10)
        reg.register_series("v", lambda: state["v"])
        state["v"] = 5
        reg.sample(10)
        state["v"] = 7
        reg.sample(20)
        out = reg.export()["series"]["v"]
        assert out == {"cycles": [10, 20], "values": [5, 7]}

    def test_same_cycle_sample_deduplicated(self):
        reg = TelemetryRegistry(interval=10)
        reg.register_series("one", lambda: 1)
        reg.sample(10)
        reg.sample(10)
        assert reg.samples == 1
        assert reg.export()["series"]["one"]["cycles"] == [10]

    def test_residency_counts_membership(self):
        members = [0, 2]
        reg = TelemetryRegistry(interval=10)
        reg.register_residency("r", 4, lambda: members)
        reg.sample(10)
        members = [2]
        reg.sample(20)
        out = reg.export()["residency"]["r"]
        assert out == {"samples": 2, "counts": [1, 0, 2, 0]}

    def test_finals_evaluated_at_export(self):
        state = {"v": 0}
        reg = TelemetryRegistry(interval=10)
        reg.register_final("total", lambda: state["v"])
        state["v"] = 42
        assert reg.export()["counters"]["total"] == 42


class TestExperimentIntegration:
    def test_telemetry_off_by_default(self):
        result = run_experiment("SingleBase", "hotspot", CFG)
        assert result.telemetry is None

    def test_fingerprint_identical_with_telemetry(self):
        off = run_experiment("SingleBase", "hotspot", CFG)
        on = run_experiment("SingleBase", "hotspot", CFG_TEL)
        assert on.stats_fingerprint == off.stats_fingerprint
        assert on.cycles == off.cycles
        assert on.instructions == off.instructions
        assert on.telemetry is not None

    def test_record_shape_and_keying(self):
        result = run_experiment("SingleBase", "hotspot", CFG_TEL)
        record = result.telemetry
        assert record["schema"] == 1
        assert record["kind"] == "experiment"
        assert record["scheme"] == "SingleBase"
        assert record["benchmark"] == "hotspot"
        assert record["config_digest"] == config_digest(CFG_TEL)
        assert record["stats_fingerprint"] == result.stats_fingerprint
        assert record["interval"] == 25
        assert record["samples"] > 0
        assert record["counters"]["system.cycles"] == result.cycles
        # every network contributes series + residency probes
        assert any(k.endswith(".in_flight") for k in record["series"])
        assert any(
            k.endswith(".router_active") for k in record["residency"]
        )

    def test_env_var_enables_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "50")
        result = run_experiment("SingleBase", "hotspot", CFG)
        assert result.telemetry is not None
        assert result.telemetry["interval"] == 50

    def test_equinox_exports_per_eir_counters(self):
        result = run_experiment(
            "EquiNox", "hotspot",
            ExperimentConfig(quota=8, mcts_iterations=10, telemetry=25),
        )
        counters = result.telemetry["counters"]
        eir = [k for k in counters
               if k.startswith("eir.") and k.endswith(".flits_sent")]
        assert eir, "EquiNox run exported no per-EIR flit counters"
        assert sum(counters[k] for k in eir) > 0

    def test_record_is_scheduler_independent(self):
        # Both schedulers simulate every base cycle, so they take the
        # same samples: the records differ only in the field that names
        # the scheduler.
        config = ExperimentConfig(quota=12, mcts_iterations=10, telemetry=5)
        records = {}
        for sched in ("active", "dense"):
            fabric = build_fabric("EquiNox", config, scheduler=sched)
            record = run_with_fabric(fabric, "bfs", config,
                                     "EquiNox").telemetry
            assert record.pop("scheduler") == sched
            records[sched] = dumps_record(record)
        assert records["active"] == records["dense"]


class TestExportDeterminism:
    def _sweep(self, jobs):
        results = run_suite(
            ["SingleBase", "SeparateBase"], ["hotspot"], CFG_TEL,
            jobs=jobs,
        )
        records = [
            results[key].telemetry for key in sorted(results)
        ]
        return [dumps_record(r) for r in records]

    def test_serial_parallel_cachewarm_byte_identical(self):
        serial = self._sweep(jobs=1)
        parallel = self._sweep(jobs=2)
        warm = self._sweep(jobs=1)  # design cache now warm on disk
        assert serial == parallel == warm

    def test_jsonl_round_trip(self, tmp_path):
        records = [
            {"schema": 1, "kind": "experiment", "value": 0.1},
            {"schema": 1, "kind": "experiment", "value": 3},
        ]
        path = write_jsonl(tmp_path / "t.jsonl", records)
        assert read_records(path) == records
        # canonical form: sorted keys, compact, one line per record
        first = path.read_text().splitlines()[0]
        assert first == dumps_record(records[0])
        assert json.loads(first) == records[0]

    def test_write_json_round_trip(self, tmp_path):
        record = {"b": 2, "a": [1.5, 2.5]}
        path = write_json(tmp_path / "sub" / "r.json", record)
        assert json.loads(path.read_text()) == record

    def test_filenames_carry_digest(self):
        assert experiment_filename("EquiNox", "kmeans", "abc") == (
            "run-EquiNox-kmeans-abc.json"
        )
        assert sweep_filename("abc") == "sweep-abc.jsonl"

    def test_config_digest_sensitive_to_knobs(self):
        assert config_digest(CFG) != config_digest(CFG_TEL)
        assert config_digest(CFG) == config_digest(
            ExperimentConfig(quota=8, mcts_iterations=10)
        )


class TestAggregation:
    def test_summarize_and_aggregate(self):
        result = run_experiment("SingleBase", "hotspot", CFG_TEL)
        row = summarize_record(result.telemetry)
        assert row["scheme"] == "SingleBase"
        assert row["flits_injected"] > 0
        assert row["packets_delivered"] > 0
        summary = aggregate_sweep([result.telemetry], "digest")
        assert summary["kind"] == "sweep_summary"
        assert summary["cells"] == [row]
        assert summary["total_flits_injected"] == row["flits_injected"]

    def test_eir_balance_counts_eirs_not_the_local_buffer(self):
        # An idle local buffer beside two evenly loaded EIRs is perfect
        # EIR balance; the local buffer is not an EIR.
        counters = {
            "eir.cb3.local.flits_sent": 0,
            "eir.cb3.eir10.flits_sent": 50,
            "eir.cb3.eir12.flits_sent": 50,
            "eir.cb3.backlog": 7,
        }
        row = summarize_record({"counters": counters})
        assert row["eir_balance"] == 1.0
        counters["eir.cb3.eir12.flits_sent"] = 25
        assert summarize_record({"counters": counters})["eir_balance"] == 0.5

    def test_sweep_records_layout(self):
        cell = {"schema": 1, "kind": "experiment", "counters": {},
                "samples": 0}
        lines = sweep_records([cell], "9.9.9", "d1")
        assert lines[0]["kind"] == "sweep"
        assert lines[0]["version"] == "9.9.9"
        assert lines[0]["cells"] == 1
        assert lines[1] is cell
        assert lines[-1]["kind"] == "sweep_summary"

    def test_sweep_report_telemetry_accessors(self):
        from repro.harness.runner import expand_grid, run_sweep

        report = run_sweep(
            expand_grid(["SingleBase"], ["hotspot"], CFG_TEL), jobs=1
        )
        records = [r.telemetry for r in report.results().values()]
        assert len(records) == 1
        summary = aggregate_sweep(records, "d2")
        assert summary["config_digest"] == "d2"
        assert len(summary["cells"]) == 1


class TestCli:
    def test_run_cli_writes_telemetry_artifact(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "--scheme", "SingleBase",
                     "--benchmark", "hotspot",
                     "--quota", "8", "--iterations", "10",
                     "--telemetry", "25",
                     "--telemetry-out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("run-SingleBase-hotspot-*.json"))
        assert len(files) == 1
        record = json.loads(files[0].read_text())
        assert record["kind"] == "experiment"
        assert record["samples"] > 0

    def test_sweep_cli_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--schemes", "SingleBase",
                     "--benchmarks", "hotspot",
                     "--quota", "8", "--iterations", "10",
                     "--telemetry", "25",
                     "--telemetry-out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("sweep-*.jsonl"))
        assert len(files) == 1
        lines = read_records(files[0])
        assert lines[0]["kind"] == "sweep"
        assert lines[1]["kind"] == "experiment"
        assert lines[-1]["kind"] == "sweep_summary"
