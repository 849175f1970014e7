"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_validate_flag_defaults_off(self):
        args = build_parser().parse_args(["run", "--scheme", "SingleBase"])
        assert args.validate == 0
        assert args.watchdog_cycles == 0

    def test_validate_bare_flag_means_default_interval(self):
        args = build_parser().parse_args(["run", "--validate"])
        assert args.validate == 1

    def test_validate_interval_and_watchdog_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "--validate", "64", "--watchdog-cycles", "500"]
        )
        assert args.validate == 64
        assert args.watchdog_cycles == 500

    def test_experiment_config_carries_validation(self):
        from repro.cli import _experiment_config

        args = build_parser().parse_args(
            ["run", "--validate", "64", "--watchdog-cycles", "500"]
        )
        cfg = _experiment_config(args)
        assert cfg.validate == 64
        assert cfg.watchdog_cycles == 500

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "TorusMax"])

    @pytest.mark.parametrize("flag", [["--journal", "x"], ["--resume"]],
                             ids=["journal", "resume"])
    def test_journal_flags_are_gone(self, flag):
        # Resume is "re-run with the same --store"; the old flags must
        # fail loudly rather than be accepted and ignored.
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["sweep"] + flag)
        assert exc_info.value.code == 2


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EquiNox" in out
        assert "kmeans" in out

    def test_figure_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        assert "92" in capsys.readouterr().out

    def test_figure_sec66(self, capsys):
        assert main(["figure", "sec66", "--iterations", "20"]) == 0
        assert "32768" in capsys.readouterr().out

    def test_design_save_load(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        assert main(["design", "--iterations", "10", "--save",
                     str(path)]) == 0
        assert path.exists()
        assert main(["design", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "EquiNox design on 8x8" in out

    def test_run_small(self, capsys):
        assert main([
            "run", "--scheme", "SingleBase", "--benchmark", "gaussian",
            "--quota", "10", "--iterations", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "EDP" in out

    def test_sweep_small(self, capsys):
        assert main([
            "sweep", "--schemes", "SingleBase", "SeparateBase",
            "--benchmarks", "gaussian", "--quota", "10",
            "--iterations", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "Execution time (normalised to SingleBase)" in out

    def test_sweep_resumes_from_store(self, tmp_path, capsys, monkeypatch):
        argv = [
            "sweep", "--schemes", "SingleBase", "SeparateBase",
            "--benchmarks", "gaussian", "--quota", "10",
            "--iterations", "10", "--store", str(tmp_path / "sweep.store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        from repro.harness import runner

        def must_not_run(scheme, benchmark, config):
            raise AssertionError("resumed sweep re-ran a stored cell")

        monkeypatch.setattr(runner, "run_experiment", must_not_run)
        assert main(argv) == 0
        second = capsys.readouterr().out

        def tables(out):
            return [line for line in out.splitlines()
                    if not line.startswith("[sweep ")]

        assert tables(second) == tables(first)

    def test_sweep_telemetry_name_covers_the_env_fault_plan(
        self, tmp_path, capsys, monkeypatch
    ):
        # The artifact is named after the config that ran: a plan from
        # REPRO_FAULTS and the same plan from --faults share a name,
        # and neither shares the fault-free run's.
        plan = '[{"kind": "eir_link", "at_cycle": 50}]'
        argv = [
            "sweep", "--schemes", "EquiNox", "--benchmarks", "gaussian",
            "--quota", "10", "--iterations", "10", "--telemetry", "50",
            "--telemetry-out",
        ]

        def artifact(out_dir, extra=()):
            assert main(argv + [str(tmp_path / out_dir), *extra]) == 0
            capsys.readouterr()
            (path,) = (tmp_path / out_dir).iterdir()
            return path.name

        clean = artifact("clean")
        by_flag = artifact("flag", ["--faults", plan])
        monkeypatch.setenv("REPRO_FAULTS", plan)
        by_env = artifact("env")
        assert by_env == by_flag != clean

    def test_unparseable_validate_env_fails_the_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "true")
        with pytest.raises(ValueError, match="REPRO_VALIDATE"):
            main(["run", "--scheme", "SingleBase", "--benchmark",
                  "gaussian", "--quota", "10", "--iterations", "10"])
