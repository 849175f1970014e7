"""The property-verification harness: cases, strategies, artifacts, replay.

The fuzzing campaigns themselves ride tier-1 through
``TestFastProfile`` (the ISSUE-mandated >=200 deterministic configs);
everything else here pins the harness machinery with plain,
non-hypothesis tests so a harness regression is distinguishable from a
simulator regression.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.gpu.system import SimulationStall
from repro.harness.experiment import config_digest
from repro.noc.faults import FaultInjector, FaultPlan, FaultSpec
from repro.noc.validation import NetworkAuditError
from repro.verify import (
    PROPERTY_DIFFERENTIAL,
    PROPERTY_ENGINE_PARITY,
    PROPERTY_INVARIANTS,
    VerifyCase,
    VerifyFailure,
    VerifyProfile,
    base_case,
    build_artifact,
    check_differential_case,
    check_engine_parity_case,
    check_invariants_case,
    differential_variants,
    engine_counterpart,
    hermetic_env,
    load_artifact,
    replay,
    run_case,
    run_profile,
    sanitize_error,
    write_failure,
)
from repro.telemetry.export import dumps_record
from repro.verify.harness import _drive
from repro.verify.invariants import end_state_problems
from repro.verify.strategies import cases

QUICK = dict(scheme="SingleBase", benchmark="backprop", width=4,
             num_cbs=3, quota=3, seed=7)

GEN = settings(
    deadline=None,
    max_examples=25,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestVerifyCase:
    def test_round_trip_and_digest_stable(self):
        case = VerifyCase(
            faults=(FaultSpec(kind="mesh_link", node=0, peer=1,
                              at_cycle=5, heal_cycle=9),),
            **QUICK,
        )
        again = VerifyCase.from_dict(case.to_dict())
        assert again == case
        assert again.digest() == case.digest()
        assert len(case.digest()) == 16

    def test_digest_sensitive_to_every_knob(self):
        case = VerifyCase(**QUICK)
        for variant in (
            case.with_variant(seed=8),
            case.with_variant(scheduler="dense"),
            case.with_variant(engine="vector"),
            case.with_variant(telemetry=2),
            case.with_variant(quota=4),
        ):
            assert variant.digest() != case.digest()

    def test_invalid_cases_rejected(self):
        with pytest.raises(ValueError):
            VerifyCase(scheme="NoSuchScheme", benchmark="backprop",
                       width=4, num_cbs=3, quota=3, seed=0)
        with pytest.raises(ValueError):
            VerifyCase(scheme="SingleBase", benchmark="nope",
                       width=4, num_cbs=3, quota=3, seed=0)
        with pytest.raises(ValueError):  # num_cbs > width
            VerifyCase(scheme="SingleBase", benchmark="backprop",
                       width=4, num_cbs=5, quota=3, seed=0)
        with pytest.raises(ValueError):  # odd width for CMesh
            VerifyCase(scheme="Interposer-CMesh", benchmark="backprop",
                       width=5, num_cbs=3, quota=3, seed=0)
        with pytest.raises(ValueError):
            VerifyCase.from_dict({**QUICK, "bogus_knob": 1})

    def test_from_dict_names_missing_fields(self):
        # A truncated/hand-edited artifact must fail with the same
        # ValueError story as every other validation — not a raw
        # TypeError from the dataclass constructor.
        partial = {k: v for k, v in QUICK.items() if k != "quota"}
        with pytest.raises(ValueError, match=r"missing.*quota"):
            VerifyCase.from_dict(partial)
        with pytest.raises(ValueError, match="missing"):
            VerifyCase.from_dict({})

    def test_experiment_config_bridge(self):
        case = VerifyCase(**QUICK)
        cfg = case.experiment_config()
        assert (cfg.width, cfg.num_cbs, cfg.quota, cfg.seed) == (
            case.width, case.num_cbs, case.quota, case.seed
        )
        assert config_digest(cfg) == config_digest(case.experiment_config())
        # The tick discipline is not a config field: run_case hands the
        # case's scheduler to build_fabric, so the dense oracle runs.
        dense = run_case(case.with_variant(scheduler="dense"), validate_every=0)
        assert dense.fabric.scheduler == "dense"

    def test_armed_faults_never_fire_but_always_bind(self):
        case = VerifyCase(**QUICK)
        armed = case.armed_faults()
        assert armed  # never vacuously empty
        assert all(s.at_cycle > case.max_cycles for s in armed)
        fabric_case = case.with_variant(faults=armed)
        with hermetic_env():
            from repro.harness.experiment import build_fabric

            fabric = build_fabric(case.scheme, case.experiment_config())
        injector = FaultInjector(fabric, FaultPlan(fabric_case.faults))
        # The mesh_link(0, 1) anchor always binds, so the armed plan is
        # never vacuously empty even on schemes with no EIR links.
        assert injector.summary()["events"] >= 1
        assert injector.applied == 0


class TestStrategies:
    @GEN
    @given(case=cases())
    def test_generated_cases_are_valid_and_serializable(self, case):
        # Construction already enforces validity; pin the round trip
        # and that fault plans pass FaultSpec validation end to end.
        assert VerifyCase.from_dict(
            json.loads(json.dumps(case.to_dict()))
        ) == case
        for spec in case.faults:
            assert spec.heal_cycle is None or spec.heal_cycle > spec.at_cycle

    def test_generation_is_deterministic(self):
        def collect():
            digests = []

            @settings(
                deadline=None, max_examples=15, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow],
            )
            @given(case=cases())
            def sample(case):
                digests.append(case.digest())

            sample()
            return digests

        first, second = collect(), collect()
        assert first == second
        assert len(set(first)) > 1  # actually exploring the space

    def test_widths_without_even_entry_rejected_up_front(self):
        # Interposer-CMesh needs an even width; a custom odd-only pool
        # must fail at strategy construction with a clear message, not
        # with sampled_from([]) mid-campaign.
        with pytest.raises(ValueError, match="even"):
            cases(widths=(5, 7))
        with pytest.raises(ValueError, match="empty"):
            cases(widths=())


class TestDrivers:
    def test_invariants_pass_on_known_good_case(self):
        run = check_invariants_case(VerifyCase(**QUICK))
        assert run.transactions_completed == run.transactions_total
        assert run.result.cycles < run.case.max_cycles

    def test_latency_clamp_breaks_the_end_state_contract(self):
        # A clamp means the zero-load model hops + size + 2 overestimated
        # a real path; fabricate one on a clean run.
        run = run_case(VerifyCase(**QUICK))
        assert end_state_problems(run) == []
        net = run.fabric.networks[0][0]
        next(iter(net.stats.latency.values())).clamped = 2
        problems = end_state_problems(run)
        assert problems == [
            f"net.{net.name}: zero-load model — 2 packet(s) delivered "
            f"faster than hops + size + 2 (latency clamped)"
        ]

    def test_liveness_violation_raises(self):
        # max_cycles far below what the workload needs: the bounded
        # liveness check must trip, not silently accept a partial run.
        case = VerifyCase(**{**QUICK, "quota": 10}).with_variant(
            max_cycles=100, watchdog_cycles=5000
        )
        with pytest.raises(VerifyFailure, match="liveness"):
            check_invariants_case(case)

    def test_differential_variants_cover_the_cross_product(self):
        case = VerifyCase(**QUICK)
        variants = differential_variants(case)
        assert set(variants) == {
            "scheduler", "telemetry", "armed-faults", "all"
        }
        assert variants["scheduler"].scheduler == "dense"
        assert variants["telemetry"].telemetry > 0
        assert variants["armed-faults"].faults
        assert base_case(case).faults == ()

    def test_differential_passes_on_known_good_case(self):
        fp = check_differential_case(VerifyCase(**QUICK))
        assert len(fp) == 64

    def test_engine_parity_keeps_firing_faults(self):
        # Unlike the differential baseline, the parity check runs the
        # case verbatim: a firing fault plan must survive into both
        # engine runs and the fingerprints must still agree.
        case = VerifyCase(
            faults=(FaultSpec(kind="mesh_link", node=0, peer=1,
                              at_cycle=40, heal_cycle=90),),
            **QUICK,
        )
        assert case.faulted
        twin = engine_counterpart(case)
        assert twin.engine == "vector"
        assert twin.faults == case.faults
        assert engine_counterpart(twin).engine == "object"
        fp = check_engine_parity_case(case)
        assert len(fp) == 64

    def test_engine_parity_detects_divergence(self, monkeypatch):
        # Force the twin run to report a different fingerprint: the
        # property must raise a shrinkable DifferentialFailure naming
        # the engine, not pass silently.
        from repro.verify import differential as diff_mod
        from repro.verify.differential import DifferentialFailure

        real = diff_mod.run_case

        def skewed(case, validate_every=0):
            run = real(case, validate_every=validate_every)
            if case.engine == "vector":
                object.__setattr__(run, "stats_fingerprint", "f" * 64)
            return run

        monkeypatch.setattr(diff_mod, "run_case", skewed)
        with pytest.raises(DifferentialFailure, match="engine=vector"):
            check_engine_parity_case(VerifyCase(**QUICK))

    def test_hermetic_env_blocks_leaking_knobs(self, monkeypatch):
        case = VerifyCase(**QUICK)
        baseline = run_case(case, validate_every=0).stats_fingerprint
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '[{"kind": "mesh_link", "node": 0, "peer": 1, "at_cycle": 3,'
            ' "heal_cycle": 8}]',
        )
        assert run_case(case, validate_every=0).stats_fingerprint == baseline

    def test_hermetic_env_covers_every_knob_in_the_source(self, monkeypatch):
        # The scrub is derived from the settings table, so it covers
        # every knob exactly when (a) every REPRO_* name in the source
        # is a table row or a location variable and (b) nothing but
        # the table's module (and the location resolver) can read the
        # environment at all.
        import os
        import re
        from pathlib import Path

        import repro
        from repro.settings import SETTINGS

        locations = {"REPRO_CACHE_DIR", "REPRO_STORE_DIR"}
        knobs = {setting.env for setting in SETTINGS.values()}
        root = Path(repro.__file__).parent
        imports_settings = re.compile(
            r"^\s*from \.+(settings import| import [^\n]*\bsettings\b)"
            r"|repro\.settings", re.M,
        )
        mentioned, env_readers, importers = set(), set(), set()
        for source in root.rglob("*.py"):
            text = source.read_text()
            relative = source.relative_to(root).as_posix()
            mentioned.update(re.findall(r"REPRO_[A-Z_]+", text))
            if re.search(r"os\.(environ|getenv)", text):
                env_readers.add(relative)
            if relative != "settings.py" and imports_settings.search(text):
                importers.add(relative)
        assert mentioned == knobs | locations  # no dead rows, no strays
        assert env_readers == {"settings.py", "harness/cache.py"}
        # Only the harness edge resolves: the model (noc, gpu, schemes,
        # telemetry, ...) takes explicit values, and verify borrows
        # nothing but the scrub.
        assert "harness/experiment.py" in importers  # the regex works
        assert all(
            name == "cli.py" or name.startswith("harness/")
            or name == "verify/invariants.py"
            for name in importers
        ), importers
        verify_source = (root / "verify" / "invariants.py").read_text()
        assert imports_settings.findall(verify_source) == ["settings import"]
        assert "from ..settings import hermetic_env\n" in verify_source
        for name in knobs:
            monkeypatch.setenv(name, "1")
        with hermetic_env():
            assert not knobs & set(os.environ)
        assert knobs <= set(os.environ)  # and restored afterwards


def failure_bytes(prop, case, error):
    """The exact bytes write_failure persists for one failure."""
    return (dumps_record(build_artifact(prop, case, error)) + "\n").encode()


class TestArtifacts:
    def test_bytes_identical_across_builds(self, tmp_path):
        case = VerifyCase(**QUICK)
        error = "VerifyFailure: buffer <Buffer at 0x7f0012abcdef> stuck"
        first = failure_bytes(PROPERTY_INVARIANTS, case, error)
        second = failure_bytes(PROPERTY_INVARIANTS, case, error)
        assert first == second
        path = write_failure(tmp_path, PROPERTY_INVARIANTS, case, error)
        assert path.read_bytes() == first
        # Addresses are scrubbed, so two processes produce equal bytes.
        assert b"0x7f0012abcdef" not in first
        assert sanitize_error(error) == sanitize_error(
            error.replace("0x7f0012abcdef", "0x55aa55aa55aa")
        )

    def test_load_rejects_corruption(self, tmp_path):
        case = VerifyCase(**QUICK)
        path = write_failure(tmp_path, PROPERTY_INVARIANTS, case, "err")
        record = load_artifact(path)
        assert record["case"] == case
        tampered = json.loads(path.read_text())
        tampered["case"]["quota"] = 9  # digest no longer matches
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered))
        with pytest.raises(ValueError, match="case_digest"):
            load_artifact(bad)
        with pytest.raises(ValueError, match="kind"):
            other = tmp_path / "other.json"
            other.write_text(json.dumps({"kind": "telemetry"}))
            load_artifact(other)
        with pytest.raises(ValueError, match="property"):
            record = build_artifact(PROPERTY_DIFFERENTIAL, case, "err")
            record["property"] = "bogus"
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps(record))
            load_artifact(broken)

    def test_replay_round_trip(self, tmp_path):
        # A failing case (impossible cycle bound) still reproduces on
        # replay; a passing case reports fixed.
        failing = VerifyCase(**{**QUICK, "quota": 10}).with_variant(
            max_cycles=100, watchdog_cycles=5000
        )
        fail_path = write_failure(
            tmp_path, PROPERTY_INVARIANTS, failing, "liveness"
        )
        assert replay(fail_path) is True
        ok_path = write_failure(
            tmp_path, PROPERTY_INVARIANTS, VerifyCase(**QUICK), "fixed"
        )
        assert replay(ok_path) is False

    def test_replay_counts_runtime_failures_as_reproduced(
        self, tmp_path, monkeypatch
    ):
        # A bug that manifests as NetworkAuditError or SimulationStall
        # (RuntimeError subclasses) must count as "still reproduces",
        # not crash the one-command repro with a raw traceback.
        case = VerifyCase(**QUICK)
        path = write_failure(tmp_path, PROPERTY_INVARIANTS, case, "audit")
        for exc in (NetworkAuditError([]), SimulationStall("stuck")):
            def raising(_case, exc=exc):
                raise exc

            monkeypatch.setattr(
                "repro.verify.invariants.check_invariants_case", raising
            )
            assert replay(path) is True


    def test_replay_of_an_unbuildable_case_is_invalid(self, tmp_path):
        # EquiNox has no N-Queen placement at 3x3, so the case cannot be
        # built: replay raises ValueError (exit 2), not "reproduces".
        case = VerifyCase(**{**QUICK, "scheme": "EquiNox", "width": 3})
        path = write_failure(tmp_path, PROPERTY_INVARIANTS, case, "x")
        with pytest.raises(ValueError, match="3x3"):
            replay(path)

class TestHarnessDriver:
    def test_drive_shrinks_to_minimal_failure(self):
        # A synthetic property that rejects any quota >= 4: the driver
        # must report the *shrunk* counterexample, deterministically.
        def check(case):
            assert case.quota < 4, f"quota {case.quota} too big"

        outcome = _drive(
            "invariants", check, cases(widths=(4,)), 30, lambda _m: None
        )
        assert outcome.failure is not None
        assert outcome.failure.quota == 4  # the boundary, not a random hit
        assert "too big" in outcome.error
        again = _drive(
            "invariants", check, cases(widths=(4,)), 30, lambda _m: None
        )
        assert again.failure == outcome.failure
        assert failure_bytes(
            "invariants", again.failure, again.error
        ) == failure_bytes("invariants", outcome.failure, outcome.error)

    def test_drive_records_simulator_runtime_failures(self):
        # NetworkAuditError and SimulationStall subclass RuntimeError,
        # not AssertionError; the driver must still record and shrink
        # them into a replayable failure instead of crashing the
        # campaign with a raw traceback.
        def audit_check(case):
            if case.quota >= 4:
                raise NetworkAuditError([])  # "audit failed"

        outcome = _drive(
            "invariants", audit_check, cases(widths=(4,)), 30,
            lambda _m: None,
        )
        assert outcome.failure is not None
        assert outcome.failure.quota == 4  # shrunk to the boundary
        assert "NetworkAuditError" in outcome.error

        def stall_check(case):
            if case.quota >= 4:
                raise SimulationStall("watchdog: no progress")

        outcome = _drive(
            "invariants", stall_check, cases(widths=(4,)), 30,
            lambda _m: None,
        )
        assert outcome.failure is not None
        assert "SimulationStall" in outcome.error

    def test_drive_propagates_harness_crashes(self):
        # An exception outside the failure set is a harness bug, not a
        # property failure — it must propagate, not vanish.
        def broken_check(case):
            raise TypeError("harness bug")

        with pytest.raises(Exception) as excinfo:
            _drive(
                "invariants", broken_check, cases(widths=(4,)), 5,
                lambda _m: None,
            )
        assert "harness bug" in str(excinfo.value) or "TypeError" in str(
            excinfo.value
        )

    def test_examples_count_excludes_shrink_reruns(self):
        # Shrinking re-executes the property many times; the reported
        # case count must only cover generated examples.
        def check(case):
            assert case.quota < 4

        outcome = _drive(
            "invariants", check, cases(widths=(4,)), 30, lambda _m: None
        )
        assert outcome.failure is not None
        assert 1 <= outcome.examples <= 30

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown verify profile"):
            run_profile("warp-speed")


MINI = VerifyProfile(
    name="mini", invariant_examples=8, differential_examples=3,
    engine_examples=3, widths=(4,),
)


def quota_below_4(case):
    assert case.quota < 4, f"quota {case.quota} too big"


def use_checks(monkeypatch, invariants, others=lambda case: None):
    """Cheap stand-ins for the three property checks of a campaign."""
    from repro.verify import harness as harness_mod

    monkeypatch.setattr(harness_mod, "check_invariants_case", invariants)
    monkeypatch.setattr(harness_mod, "check_differential_case", others)
    monkeypatch.setattr(harness_mod, "check_engine_parity_case", others)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)))


def report_shape(report):
    """Everything a report says except its wall times and artifact dir."""
    return [
        (o.prop, o.examples, o.failure, o.error,
         o.artifact_path and o.artifact_path.read_bytes())
        for o in report.outcomes
    ]


class TestParallelCampaign:
    """``run_profile`` draws every property's cases in this process,
    checks them all in one pool of forked workers and re-drives only a
    failing property inline, so every report and artifact is the
    serial campaign's."""

    @pytest.mark.parametrize("prop,check,with_faults", [
        (PROPERTY_INVARIANTS, check_invariants_case, True),
        (PROPERTY_DIFFERENTIAL, check_differential_case, False),
        (PROPERTY_ENGINE_PARITY, check_engine_parity_case, True),
    ])
    def test_the_draw_yields_the_cases_the_real_drive_checks(
        self, prop, check, with_faults
    ):
        strategy = cases(widths=(4,), base_seed=1, with_faults=with_faults)
        drawn = []
        _drive(prop, drawn.append, strategy, 5, lambda _m: None)
        checked = []

        def recording(case):
            checked.append(case)
            check(case)

        outcome = _drive(prop, recording, strategy, 5, lambda _m: None)
        assert outcome.ok and outcome.examples == 5
        assert checked == drawn

    def test_failure_artifact_is_the_inline_drives(self, tmp_path, monkeypatch):
        use_checks(monkeypatch, quota_below_4)
        use_cpus(monkeypatch, 2)
        report = run_profile(MINI, artifact_dir=tmp_path / "pool", seed=3)
        [failed] = report.failures
        inline = _drive(
            PROPERTY_INVARIANTS, quota_below_4,
            cases(widths=(4,), base_seed=3, with_faults=True),
            MINI.invariant_examples, lambda _m: None,
        )
        assert failed.failure.quota == 4
        assert (failed.examples, failed.failure, failed.error) == (
            inline.examples, inline.failure, inline.error,
        )
        path = write_failure(
            tmp_path / "inline", PROPERTY_INVARIANTS, inline.failure,
            inline.error,
        )
        assert list((tmp_path / "pool").iterdir()) == [
            tmp_path / "pool" / path.name
        ]
        assert failed.artifact_path.read_bytes() == path.read_bytes()

    def test_a_crash_in_a_pooled_case_propagates(self, monkeypatch):
        def broken(case):
            raise TypeError("harness bug")

        use_checks(monkeypatch, broken)
        use_cpus(monkeypatch, 2)
        with pytest.raises(TypeError, match="harness bug"):
            run_profile(MINI)
        assert multiprocessing.active_children() == []

    def test_a_campaign_makes_one_pool(self, monkeypatch):
        from concurrent.futures import process

        made = []

        class Counted(process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Counted)
        use_checks(monkeypatch, quota_below_4)
        use_cpus(monkeypatch, 2)
        report = run_profile(MINI, seed=3)
        assert [o.ok for o in report.outcomes] == [False, True, True]
        assert made == [(2,)]
        assert multiprocessing.active_children() == []

    def test_a_failing_later_property_gives_the_serial_report(
        self, tmp_path, monkeypatch
    ):
        from repro.verify import harness as harness_mod

        parent, inline = os.getpid(), []

        def passes(case):
            if os.getpid() == parent:
                inline.append(case)

        use_checks(monkeypatch, passes, passes)
        monkeypatch.setattr(
            harness_mod, "check_differential_case", quota_below_4
        )
        runs = []
        for cpus in (2, 1):
            use_cpus(monkeypatch, cpus)
            lines = []
            report = run_profile(
                MINI, artifact_dir=tmp_path / str(cpus), seed=3,
                log=lines.append,
            )
            runs.append((report_shape(report), lines))
            # A passing property is never re-driven: each one takes
            # exactly its own verdicts.
            assert cpus == 1 or inline == []
        assert [shape[0] for shape in runs[0][0]] == [
            PROPERTY_INVARIANTS, PROPERTY_DIFFERENTIAL, PROPERTY_ENGINE_PARITY,
        ]
        assert [shape[2] is None for shape in runs[0][0]] == [True, False, True]
        assert runs[0] == runs[1]

    def test_property_seconds_add_up_to_the_campaign(self, monkeypatch):
        def slow(case):
            time.sleep(0.02)

        use_checks(monkeypatch, slow, slow)
        use_cpus(monkeypatch, 2)
        start = time.perf_counter()
        report = run_profile(MINI)
        wall = time.perf_counter() - start
        spent = sum(o.seconds for o in report.outcomes)
        assert 0.9 * wall <= spent <= wall

    @pytest.mark.parametrize("host", ["no-affinity", "no-fork"])
    def test_other_platforms_give_the_same_report(
        self, host, tmp_path, monkeypatch
    ):
        use_checks(monkeypatch, quota_below_4)
        use_cpus(monkeypatch, 2)
        pooled = run_profile(MINI, artifact_dir=tmp_path / "pool", seed=3)
        if host == "no-affinity":  # macOS, Windows
            monkeypatch.delattr(os, "sched_getaffinity")
        else:  # Windows

            def no_fork(method=None):
                raise ValueError(f"cannot find context for {method!r}")

            monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        other = run_profile(MINI, artifact_dir=tmp_path / host, seed=3)
        assert report_shape(other) == report_shape(pooled)

    def test_importing_verify_loads_no_multiprocessing(self):
        src = Path(__file__).resolve().parents[1] / "src"
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.verify; print('multiprocessing' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout
        assert loaded.strip() == "False"

    def test_a_killed_worker_changes_nothing(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def dies_in_a_worker(case):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        def invariants(case):
            dies_in_a_worker(case)
            quota_below_4(case)

        # 60 differential cases: a re-drive that logged would repeat
        # the "... differential: 50 cases" line.
        profile = VerifyProfile("mini", 8, 60, 3, (4,))
        use_checks(monkeypatch, invariants, dies_in_a_worker)
        use_cpus(monkeypatch, 2)
        killed_log, serial_log = [], []
        killed = run_profile(
            profile, artifact_dir=tmp_path / "killed", log=killed_log.append
        )
        use_cpus(monkeypatch, 1)
        serial = run_profile(
            profile, artifact_dir=tmp_path / "serial", log=serial_log.append
        )
        assert [o.ok for o in serial.outcomes] == [False, True, True]
        assert report_shape(killed) == report_shape(serial)
        assert killed_log == serial_log
        assert serial_log.count("  ... differential: 50 cases") == 1

    def test_one_cpu_gives_the_same_report(self, tmp_path, monkeypatch):
        use_checks(monkeypatch, quota_below_4)
        use_cpus(monkeypatch, 2)
        pooled = run_profile(MINI, artifact_dir=tmp_path / "pool", seed=3)
        use_cpus(monkeypatch, 1)
        inline = run_profile(MINI, artifact_dir=tmp_path / "inline", seed=3)
        assert report_shape(inline) == report_shape(pooled)
        assert inline.cases_run == pooled.cases_run


class TestFastProfile:
    def test_fast_profile_clean_and_deterministic(self, tmp_path):
        """Tier-1 campaign: >=200 generated configs, zero failures."""
        report = run_profile("fast", artifact_dir=tmp_path, seed=0)
        assert report.cases_run >= 200
        assert report.ok, report.summary()
        assert list(tmp_path.iterdir()) == []  # no artifacts on success


class TestCli:
    def test_verify_replay_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        ok_path = write_failure(
            tmp_path, PROPERTY_INVARIANTS, VerifyCase(**QUICK), "x"
        )
        assert main(["verify", "--replay", str(ok_path)]) == 0
        failing = VerifyCase(**{**QUICK, "quota": 10}).with_variant(
            max_cycles=100, watchdog_cycles=5000
        )
        fail_path = write_failure(
            tmp_path, PROPERTY_INVARIANTS, failing, "liveness"
        )
        assert main(["verify", "--replay", str(fail_path)]) == 1
        out = capsys.readouterr().out
        assert "no longer reproduces" in out
        assert "still reproduces" in out

    def test_verify_replay_invalid_artifact_is_usage_error(
        self, tmp_path, capsys
    ):
        # Truncated/corrupt artifacts exit 2 with the validation
        # message, not a raw traceback (and not exit 1, which means
        # "bug still reproduces").
        from repro.cli import main

        truncated = json.loads(
            write_failure(
                tmp_path, PROPERTY_INVARIANTS, VerifyCase(**QUICK), "x"
            ).read_text()
        )
        del truncated["case"]["quota"]
        del truncated["case_digest"]
        bad = tmp_path / "truncated.json"
        bad.write_text(json.dumps(truncated))
        assert main(["verify", "--replay", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "missing required fields" in out
        assert main(["verify", "--replay", str(tmp_path / "nope.json")]) == 2

    def test_mini_profile_summary(self, tmp_path, capsys, monkeypatch):
        # Exercise the campaign path end-to-end with a tiny budget.
        from repro.verify import harness as harness_mod

        mini = VerifyProfile(
            name="fast", invariant_examples=3,
            differential_examples=2, engine_examples=2, widths=(4,),
        )
        monkeypatch.setitem(harness_mod.PROFILES, "fast", mini)
        from repro.cli import main

        code = main([
            "verify", "--profile", "fast",
            "--artifact-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all passed" in out
        # Each property's line names its wall time.
        for prop, examples in (
            ("invariants", 3), ("differential", 2), ("engine-parity", 2)
        ):
            assert re.search(
                rf"\[ok\] {prop}: {examples} cases in \d+\.\d s$", out, re.M
            ), out
