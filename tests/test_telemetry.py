"""Tests for the telemetry subsystem and the bench regression gate.

The load-bearing contracts:

* probes are read-only — a telemetry-enabled run keeps the exact same
  ``stats_fingerprint`` as a disabled one (differential);
* exports are deterministic — serial, parallel and cache-warm runs of
  one sweep produce byte-identical JSONL artifacts;
* the disabled path is (near) free — the harness carries ``None`` and
  ``NullTelemetry`` records nothing;
* ``compare_bench`` fails on checksum drift and the same-run engine
  checks, and never on a baseline timing.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro import settings
from repro.harness.bench import (
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

ROOT = Path(__file__).resolve().parent.parent
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
        # No timing is compared across runs: a tenth, 0.9x and 5x of the
        # baseline's cycles/s all pass on an unchanged checksum.
        base = _bench_payload(1000.0)
        for rate in (100.0, 900.0, 5000.0):
            assert compare_bench(_bench_payload(rate), base) == []

    @given(
        factor=st.one_of(st.none(), st.floats()),
        poisoned=st.sampled_from([None, "synthetic", "low_load_vector"]),
    )
    def test_verdict_ignores_baseline_timings(self, factor, poisoned):
        # The committed baseline, gated against a run with its own rows:
        # scaling every timing in the baseline by any factor, or deleting
        # them all, leaves the verdict exactly as it was.
        base = load_bench(ROOT / "BENCH_BASELINE.json")
        current = copy.deepcopy(base)
        if poisoned:
            base["scenarios"][poisoned]["checksum"] = "0000000000"
        retimed = copy.deepcopy(base)
        for row in retimed["scenarios"].values():
            for key in ("seconds", "cycles_per_s"):
                if factor is None:
                    del row[key]
                else:
                    row[key] *= factor
        verdict = compare_bench(current, base)
        assert compare_bench(current, retimed) == verdict
        drifted = any("checksum changed" in v for v in verdict)
        assert drifted == (poisoned is not None)

    def test_fails_on_checksum_change_regardless_of_speed(self):
        base = _bench_payload(1000.0)
        fast_but_wrong = _bench_payload(5000.0, checksum="bbb")
        violations = compare_bench(fast_but_wrong, base)
        assert len(violations) == 1
        assert "checksum" in violations[0]

    def test_fails_on_missing_scenario(self):
        base = _bench_payload(1000.0)
        current = {"schema": 1, "scenarios": {}}
        violations = compare_bench(current, base)
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
            violations = compare_bench(current, bad)
            assert any("vacuously" in v for v in violations), bad

    def test_fails_on_baseline_schema_mismatch(self):
        current = _bench_payload(1000.0)
        stale = _bench_payload(1000.0, schema=1)
        violations = compare_bench(current, stale)
        assert any("schema" in v for v in violations)
        # the scenario rows are still compared (no silent skip)
        assert not any("missing" in v for v in violations)

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
                   for v in compare_bench(current, base))

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

    def test_write_load_format_round_trip(self, tmp_path):
        data = _bench_payload(1000.0)
        path = write_bench(tmp_path / "BENCH.json", data)
        assert load_bench(path) == data
        text = format_bench(data)
        assert "synthetic" in text and "checksum aaa" in text
        assert "baseline" not in text


class TestBenchScenarios:
    def test_scenario_runs_and_reports(self):
        row = run_scenario("low_load", repeat=1)
        assert row["cycles"] > 0
        assert row["cycles_per_s"] > 0
        assert len(row["checksum"]) == 10

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("nope")

    def test_scenario_checksum_scheduler_invariant(self):
        # The scenario runs the active scheduler; the dense oracle on the
        # same configuration must simulate the same thing.
        from repro.core.grid import Grid
        from repro.harness.bench import SCENARIOS, _network_checksum
        from repro.workloads.synthetic import run_uniform

        active = run_scenario("low_load", repeat=1)
        engine, _, (width, rate, cycles) = SCENARIOS["low_load"]
        dense = run_uniform(Grid(width), injection_rate=rate, cycles=cycles,
                            seed=1, scheduler="dense", engine=engine)
        assert active["checksum"] == _network_checksum(dense)
        assert active["received"] == dense.received


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

    @pytest.mark.parametrize("case", [
        "unknown_scenario", "unreadable", "bad_json", "wrong_schema",
        "no_scenarios",
    ])
    def test_bench_cli_usage_error_exits_2_before_running(
        self, case, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.harness import bench

        def must_not_run(*args, **kwargs):
            raise AssertionError("a scenario ran before the usage check")

        monkeypatch.setattr(bench, "run_scenario", must_not_run)
        baseline = tmp_path / "BASE.json"
        good = _bench_payload(1000.0)
        if case == "bad_json":
            baseline.write_text('{"schema": 4, "scenarios": ')
        elif case == "wrong_schema":
            write_bench(baseline, dict(good, schema=1))
        elif case == "no_scenarios":
            write_bench(baseline, dict(good, scenarios={}))
        else:
            write_bench(baseline, good)
        if case == "unreadable":
            baseline = tmp_path / "missing.json"
        scenario = "nope" if case == "unknown_scenario" else "low_load"
        assert main(["bench", "--scenarios", scenario,
                     "--output", str(tmp_path / "OUT.json"),
                     "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "OUT.json").exists()

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
