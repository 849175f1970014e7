"""Tests for the telemetry subsystem and the bench regression gate.

The load-bearing contracts:

* probes are read-only — a telemetry-enabled run keeps the exact same
  ``stats_fingerprint`` as a disabled one (differential);
* exports are deterministic — serial, parallel and cache-warm runs of
  one sweep produce byte-identical JSONL artifacts;
* the disabled path is (near) free — the harness carries ``None`` and
  ``NullTelemetry`` records nothing;
* ``compare_bench`` fails on checksum drift and throughput collapse,
  and only on those.
"""

import json

import pytest

from repro import settings
from repro.harness.bench import (
    checksum_divergence,
    compare_bench,
    format_bench,
    load_bench,
    run_scenario,
    write_bench,
)
from repro.harness.experiment import (
    ExperimentConfig,
    config_digest,
    run_experiment,
    run_suite,
)
from repro.telemetry import (
    DEFAULT_INTERVAL,
    NULL_TELEMETRY,
    NullTelemetry,
    SeriesSampler,
    TelemetryRegistry,
    aggregate_sweep,
    dumps_record,
    experiment_filename,
    read_jsonl,
    resolve_interval,
    summarize_record,
    sweep_filename,
    sweep_records,
    write_json,
    write_jsonl,
)

CFG = ExperimentConfig(quota=8, mcts_iterations=10)
CFG_TEL = ExperimentConfig(quota=8, mcts_iterations=10, telemetry=25)


class TestIntervals:
    def test_resolve_interval_convention(self):
        assert resolve_interval(0) == 0
        assert resolve_interval(-3) == 0
        assert resolve_interval(1) == DEFAULT_INTERVAL
        assert resolve_interval(64) == 64

    def test_env_parsing(self, monkeypatch):
        def interval():
            config = settings.resolve(ExperimentConfig())
            return resolve_interval(config.telemetry)

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
    def test_series_windowing_evicts_oldest(self):
        sampler = SeriesSampler("x", lambda: 1.0, window=3)
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

    def test_null_telemetry_records_nothing(self):
        null = NullTelemetry()
        assert not null.enabled
        assert null.register_series("x", lambda: 1) is None
        null.sample(10)
        assert not null.due(10)
        assert null.export()["samples"] == 0
        assert NULL_TELEMETRY.export()["series"] == {}


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
        assert read_jsonl(path) == records
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
        records = report.telemetry_records()
        assert len(records) == 1
        summary = report.telemetry_summary("d2")
        assert summary["config_digest"] == "d2"
        assert len(summary["cells"]) == 1


def _bench_payload(rate, checksum="aaa", schema=None):
    from repro.harness.bench import BENCH_SCHEMA

    return {
        "schema": BENCH_SCHEMA if schema is None else schema,
        "scenarios": {
            "synthetic": {
                "cycles": 4000,
                "seconds": 4000 / rate,
                "cycles_per_s": rate,
                "checksum": checksum,
                "received": 10,
            },
        },
    }


class TestBenchGate:
    def test_passes_within_tolerance(self):
        base = _bench_payload(1000.0)
        assert compare_bench(_bench_payload(900.0), base, 0.25) == []
        # speedups never fail
        assert compare_bench(_bench_payload(5000.0), base, 0.25) == []

    def test_fails_on_slowdown_past_tolerance(self):
        base = _bench_payload(1000.0)
        violations = compare_bench(_bench_payload(700.0), base, 0.25)
        assert len(violations) == 1
        assert "cycles/s" in violations[0]

    def test_fails_on_checksum_change_regardless_of_speed(self):
        base = _bench_payload(1000.0)
        fast_but_wrong = _bench_payload(5000.0, checksum="bbb")
        violations = compare_bench(fast_but_wrong, base, 0.25)
        assert len(violations) == 1
        assert "checksum" in violations[0]

    def test_calibration_scales_expected_throughput(self):
        # baseline machine: cal 1.0s; current machine 2x slower (cal
        # 2.0s) -> expected throughput halves, so 0.6x absolute passes
        base = dict(_bench_payload(1000.0), calibration_s=1.0)
        slow_box = dict(_bench_payload(600.0), calibration_s=2.0)
        assert compare_bench(slow_box, base, 0.25) == []
        # a real regression on the slow box still fails: expected 500,
        # floor 375, measured 300
        regressed = dict(_bench_payload(300.0), calibration_s=2.0)
        violations = compare_bench(regressed, base, 0.25)
        assert len(violations) == 1
        assert "speed-adjusted" in violations[0]
        # records without calibration fall back to absolute comparison
        assert compare_bench(_bench_payload(600.0), base, 0.25) != []

    def test_fails_on_missing_scenario(self):
        base = _bench_payload(1000.0)
        current = {"schema": 1, "scenarios": {}}
        violations = compare_bench(current, base, 0.25)
        assert violations == ["synthetic: missing from current run"]

    def test_empty_baseline_never_passes_vacuously(self):
        # An empty or malformed baseline compares zero scenarios, which
        # used to return no violations at all — the gate passed while
        # gating nothing.
        from repro.harness.bench import BENCH_SCHEMA

        current = _bench_payload(1000.0)
        for bad in (
            {"schema": BENCH_SCHEMA},                         # no key
            dict(_bench_payload(1000.0), scenarios={}),       # empty
            dict(_bench_payload(1000.0), scenarios="oops"),   # wrong type
        ):
            violations = compare_bench(current, bad, 0.25)
            assert any("vacuously" in v for v in violations), bad

    def test_fails_on_baseline_schema_mismatch(self):
        current = _bench_payload(1000.0)
        stale = _bench_payload(1000.0, schema=1)
        violations = compare_bench(current, stale, 0.25)
        assert any("schema" in v for v in violations)
        # the scenario rows are still compared (no silent skip)
        assert not any("missing" in v for v in violations)

    def test_uncalibrated_comparison_is_explicit(self):
        # calibration_s missing (or zero) on either side: the gate
        # still compares, but the violation text says the comparison
        # ran uncalibrated and names the record at fault.
        base_cal = dict(_bench_payload(1000.0), calibration_s=1.0)
        cur_nocal = _bench_payload(600.0)
        violations = compare_bench(cur_nocal, base_cal, 0.25)
        assert len(violations) == 1
        assert "UNCALIBRATED" in violations[0]
        assert "current" in violations[0]

        base_nocal = dict(_bench_payload(1000.0), calibration_s=0.0)
        cur_cal = dict(_bench_payload(600.0), calibration_s=1.0)
        violations = compare_bench(cur_cal, base_nocal, 0.25)
        assert len(violations) == 1
        assert "UNCALIBRATED" in violations[0]
        assert "baseline" in violations[0]

    def test_engine_checksum_divergence_fails_gate(self):
        from repro.harness.bench import engine_violations

        rows = {
            "synthetic": {"checksum": "aaa", "cycles_per_s": 100.0},
            "synthetic_vector": {"checksum": "aaa",
                                 "cycles_per_s": 400.0},
        }
        assert engine_violations(rows) == []
        rows["synthetic_vector"]["checksum"] = "bbb"
        violations = engine_violations(rows)
        assert len(violations) == 1
        assert "engine-parity" in violations[0]
        # compare_bench surfaces the same divergence
        current = dict(_bench_payload(1000.0), scenarios=rows)
        base = _bench_payload(1000.0, checksum="aaa")
        assert any("engine-parity" in v
                   for v in compare_bench(current, base, 0.25))

    def test_engine_speedup_floor(self):
        from repro.harness.bench import engine_violations

        rows = {
            "synthetic": {"checksum": "aaa", "cycles_per_s": 100.0},
            "synthetic_vector": {"checksum": "aaa",
                                 "cycles_per_s": 250.0},
        }
        violations = engine_violations(rows, min_speedup=3.0)
        assert len(violations) == 1
        assert "below the 3.0x floor" in violations[0]
        assert engine_violations(rows, min_speedup=2.0) == []

    def test_low_load_floor(self):
        from repro.harness.bench import engine_violations, format_bench

        rows = {
            "low_load": {"checksum": "aaa", "cycles_per_s": 8000.0,
                         "cycles": 3014, "seconds": 0.4},
            "low_load_vector": {
                "checksum": "aaa", "cycles_per_s": 7000.0,
                "cycles": 3014, "seconds": 0.43,
                "arming": {"armed_cycles": 0, "arms": 0, "disarms": 0,
                           "fallback_allocs": 0, "vc_allocs": 5120},
            },
        }
        assert engine_violations(rows) == []
        # The pre-adaptive engine's ratio: always armed on a quiet mesh.
        rows["low_load_vector"]["cycles_per_s"] = 2700.0
        rows["low_load_vector"]["arming"] = {
            "armed_cycles": 3014, "arms": 1, "disarms": 0,
            "fallback_allocs": 4800, "vc_allocs": 5120,
        }
        violations = engine_violations(rows)
        assert len(violations) == 1
        assert violations[0].startswith(
            "low_load: vector engine ratio 0.34x is below the 0.8x floor "
            "(2700 vs 8000 cycles/s)"
        )
        # ...and the message says why: it never left the SoA, where
        # so few heads attempt per cycle that the fallback took them all.
        assert (
            "armed 3014/3014 cycles (1 arms, 0 disarms), "
            "fallback 4800/5120 allocs"
        ) in violations[0]
        assert engine_violations(rows, min_low_load_ratio=0.3) == []
        table = format_bench({"scenarios": rows})
        assert "armed 3014/3014 cycles (1 arms, 0 disarms)" in table
        assert "vector/object ratio on low_load: 0.34x (floor 0.8x)" in table

    def test_fallback_share_ceiling(self):
        from repro.harness.bench import engine_violations

        def rows(fallback_allocs):
            return {
                "synthetic": {"checksum": "aaa", "cycles_per_s": 100.0},
                "synthetic_vector": {
                    "checksum": "aaa", "cycles_per_s": 400.0, "cycles": 2700,
                    "arming": {
                        "armed_cycles": 2657, "arms": 1, "disarms": 1,
                        "fallback_allocs": fallback_allocs,
                        "vc_allocs": 100_000,
                    },
                },
            }

        assert engine_violations(rows(5_000)) == []  # exactly at 5 %
        violations = engine_violations(rows(5_001))
        assert len(violations) == 1
        assert violations[0].startswith(
            "synthetic_vector: 5001 of 100000 allocations took the "
            "golden-model fallback, above the 5% ceiling"
        )
        assert engine_violations(rows(5_001), max_fallback_share=0.06) == []
        # Counts, not timings: the quiet pair is not held to it.
        quiet = {"low_load_vector": rows(90_000)["synthetic_vector"]}
        assert engine_violations(quiet) == []

    def test_checksum_divergence_helper(self):
        rows = {"dense": {"checksum": "a"}, "active": {"checksum": "a"}}
        assert checksum_divergence(rows) is None
        rows["active"] = {"checksum": "b"}
        assert checksum_divergence(rows) == ("a", "b")
        assert checksum_divergence({"dense": {"checksum": "a"}}) is None

    def test_write_load_format_round_trip(self, tmp_path):
        data = _bench_payload(1000.0)
        path = write_bench(tmp_path / "BENCH.json", data)
        assert load_bench(path) == data
        text = format_bench(data, baseline=data)
        assert "synthetic" in text and "1.00x baseline" in text


class TestBenchScenarios:
    def test_scenario_runs_and_reports(self):
        row = run_scenario("low_load", repeat=1, scheduler="active")
        assert row["cycles"] > 0
        assert row["cycles_per_s"] > 0
        assert len(row["checksum"]) == 10

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("nope")

    def test_scenario_checksum_scheduler_invariant(self):
        dense = run_scenario("low_load", repeat=1, scheduler="dense")
        active = run_scenario("low_load", repeat=1, scheduler="active")
        assert dense["checksum"] == active["checksum"]
        assert dense["received"] == active["received"]


class TestCli:
    def test_bench_cli_writes_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH.json"
        assert main(["bench", "--repeat", "1",
                     "--scenarios", "low_load",
                     "--output", str(out)]) == 0
        data = load_bench(out)
        assert "low_load" in data["scenarios"]
        # Gate against the first run slowed tenfold: passes on the
        # identical checksum, and no host load can fail it — wall-clock
        # ratios are the CI bench-gate job's, measured within one run.
        data["scenarios"]["low_load"]["cycles_per_s"] /= 10
        write_bench(out, data)
        assert main(["bench", "--repeat", "1",
                     "--scenarios", "low_load",
                     "--output", str(tmp_path / "B2.json"),
                     "--baseline", str(out)]) == 0
        # poison the baseline checksum: gate must fail
        data["scenarios"]["low_load"]["checksum"] = "0000000000"
        write_bench(out, data)
        assert main(["bench", "--repeat", "1",
                     "--scenarios", "low_load",
                     "--output", str(tmp_path / "B3.json"),
                     "--baseline", str(out)]) == 1
        err = capsys.readouterr().err
        assert "checksum changed" in err

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
        lines = read_jsonl(files[0])
        assert lines[0]["kind"] == "sweep"
        assert lines[1]["kind"] == "experiment"
        assert lines[-1]["kind"] == "sweep_summary"
