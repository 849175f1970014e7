"""Tests for the figure generators (small configurations)."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.harness import figures
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import (
    figure4,
    figure5,
    figure7,
    figure9,
    figure10,
    figure11,
    section66,
    table1,
)
from repro.noc.faults import FaultSpec
from repro.workloads import profiles

SMALL = ExperimentConfig(quota=10, mcts_iterations=20)


class TestTable1:
    def test_rows_render(self):
        result = table1(SMALL)
        text = result.render()
        assert "Separable input first" in text
        assert "FR-FCFS" in text

    def test_hbm_bandwidth_from_model(self):
        result = table1(SMALL)
        values = dict(result.rows)
        assert values["HBM bandwidth"].startswith("256")


class TestFigure4:
    def test_small_run(self):
        result = figure4(width=8, injection_rate=0.3, cycles=300)
        assert set(result.variances) == {
            "top", "side", "diagonal", "diamond", "nqueen"
        }
        for heat in result.heatmaps.values():
            assert heat.shape == (8, 8)
        assert "Residence variance" in result.render()


class TestFigure5:
    def test_92_solutions(self):
        result = figure5(8)
        assert result.num_solutions == 92
        assert len(result.penalties) == 92
        assert result.best_penalty == min(result.penalties)

    def test_smaller_board(self):
        result = figure5(6)
        assert result.num_solutions == 4


class TestFigure7:
    def test_design_properties(self):
        result = figure7(SMALL)
        design = result.design
        assert len(design.eir_design.groups) == 8
        assert design.num_eirs > 0
        assert "EIRs" in result.render()


class TestFigure9And10:
    @pytest.fixture(scope="class")
    def fig9(self):
        return figure9(
            SMALL,
            schemes=["SingleBase", "SeparateBase", "EquiNox"],
            benchmarks=["hotspot", "kmeans"],
        )

    def test_grid_complete(self, fig9):
        assert len(fig9.results) == 6

    def test_normalized_baseline_is_one(self, fig9):
        means = fig9.normalized_means("cycles")
        assert means["SingleBase"] == pytest.approx(1.0)

    def test_render(self, fig9):
        text = fig9.render()
        assert "Execution time" in text
        assert "EDP" in text

    def test_figure10_from_fig9(self, fig9):
        fig10 = figure10(fig9)
        lat = fig10.mean_latency()
        assert set(lat) == set(fig9.schemes)
        assert all(v.total > 0 for v in lat.values())
        assert "ReqQ(ns)" in fig10.render()


class TestFigure11:
    def test_all_schemes_present(self):
        result = figure11(SMALL)
        assert len(result.areas) == 9
        assert all(a > 0 for a in result.areas.values())
        assert "vs SeparateBase" in result.render()


class TestSection66:
    def test_budgets(self):
        result = section66(SMALL)
        assert result.cmesh.num_bumps == 32768
        assert result.equinox.num_bumps < result.cmesh.num_bumps
        assert 50 < result.saving_percent < 95
        assert "µbump" in result.render()


class TestFigure12:
    def test_every_width_keeps_the_callers_config(self, monkeypatch):
        """One ``run_suite`` per width, under the caller's config with
        only the width replaced: engine, audits, watchdog, faults and
        telemetry all reach the cells."""
        calls = []

        def fake_run_suite(schemes, benchmarks, config):
            calls.append((list(schemes), list(benchmarks), config))
            return {
                (s, b): SimpleNamespace(ipc=3.0 if s == "EquiNox" else 2.0)
                for s in schemes
                for b in benchmarks
            }

        monkeypatch.setattr(figures, "run_suite", fake_run_suite)
        base = ExperimentConfig(
            quota=7, engine="vector", validate=64, watchdog_cycles=900,
            telemetry=25,
            faults=(FaultSpec(kind="eir_link", at_cycle=100),),
        )
        result = figures.figure12(base, widths=(8, 12), num_benchmarks=2)
        names = [p.name for p in profiles.subset(2)]
        assert calls == [
            (["SeparateBase", "EquiNox"], names, replace(base, width=w))
            for w in (8, 12)
        ]
        assert result.speedups == {8: 1.5, 12: 1.5}
