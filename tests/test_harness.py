"""Tests for the experiment harness: metrics, cache, runners."""

import pytest

from repro.harness import cache
from repro.harness.experiment import (
    ExperimentConfig,
    build_fabric,
    run_experiment,
    run_suite,
)
from repro.harness.metrics import (
    LatencyNs,
    format_table,
    geomean,
    mean,
    normalize,
    reduction_percent,
)


class TestMetrics:
    def test_normalize(self):
        values = {"a": 2.0, "b": 1.0, "base": 4.0}
        out = normalize(values, "base")
        assert out == {"a": 0.5, "b": 0.25, "base": 1.0}

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "base")

    def test_normalize_zero_baseline(self):
        with pytest.raises(ValueError):
            normalize({"base": 0.0}, "base")

    def test_mean_and_geomean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert geomean([1.0, 4.0]) == 2.0
        assert mean([]) == 0.0

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_reports_offending_values(self):
        # Regression: the error must name which inputs are broken so a
        # poisoned normalized sweep table is diagnosable at a glance.
        with pytest.raises(ValueError, match=r"2 non-positive of 3"):
            geomean([1.0, 0.0, -2.5])
        with pytest.raises(ValueError, match=r"\[1\]=0.0"):
            geomean([1.0, 0.0, -2.5])
        with pytest.raises(ValueError, match=r"\[2\]=-2.5"):
            geomean([1.0, 0.0, -2.5])

    def test_geomean_rejects_nan(self):
        with pytest.raises(ValueError, match="non-positive"):
            geomean([1.0, float("nan")])

    def test_reduction_percent(self):
        assert reduction_percent(100.0, 76.5) == pytest.approx(23.5)
        assert reduction_percent(0.0, 10.0) == 0.0

    def test_latency_ns_totals(self):
        lat = LatencyNs(1.0, 2.0, 3.0, 4.0)
        assert lat.request_total == 3.0
        assert lat.reply_total == 7.0
        assert lat.total == 10.0

    def test_format_table(self):
        table = format_table(("A", "Bee"), [("x", 1.0), ("yyy", 2.5)])
        lines = table.splitlines()
        assert lines[0].startswith("A")
        assert "1.000" in table
        assert len(lines) == 4


class TestCache:
    def test_equinox_design_cached(self):
        cache.clear()
        a = cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        b = cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        assert a is b
        cache.clear()
        c = cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        assert c is not a
        assert c.eir_design == a.eir_design  # deterministic rebuild

    def test_placement_cached(self):
        cache.clear()
        a = cache.placement("diamond", 8)
        b = cache.placement("diamond", 8)
        assert a is b


class TestExperiment:
    CFG = ExperimentConfig(quota=10, mcts_iterations=20)

    def test_default_config(self):
        cfg = ExperimentConfig()
        assert cfg.width == 8
        assert cfg.num_cbs == 8

    def test_run_experiment_fields(self):
        result = run_experiment("SeparateBase", "hotspot", self.CFG)
        assert result.scheme == "SeparateBase"
        assert result.benchmark == "hotspot"
        assert result.cycles > 0
        assert result.instructions == 10 * 56
        assert result.energy_nj > 0
        assert result.area_mm2 > 0
        assert result.edp == pytest.approx(
            result.energy_nj * result.execution_ns
        )

    def test_reply_bits_dominate(self):
        """The paper's 72.7% reply-bit share, approximately."""
        result = run_experiment("SeparateBase", "kmeans", self.CFG)
        assert 0.6 < result.reply_bits_fraction < 0.9

    def test_latency_components_positive(self):
        result = run_experiment("SeparateBase", "kmeans", self.CFG)
        assert result.latency.request_non_queuing > 0
        assert result.latency.reply_non_queuing > 0

    def test_run_suite_grid(self):
        results = run_suite(
            ["SingleBase", "SeparateBase"], ["hotspot"], self.CFG
        )
        assert set(results) == {
            ("SingleBase", "hotspot"),
            ("SeparateBase", "hotspot"),
        }

    def test_build_fabric_equinox_uses_cached_design(self):
        fabric = build_fabric("EquiNox", self.CFG)
        assert fabric.equinox_design is cache.equinox_design(
            8, 8, iterations_per_level=20, seed=0
        )

    def test_experiment_deterministic(self):
        a = run_experiment("SingleBase", "hotspot", self.CFG)
        b = run_experiment("SingleBase", "hotspot", self.CFG)
        assert a.cycles == b.cycles
        assert a.energy_nj == pytest.approx(b.energy_nj)
