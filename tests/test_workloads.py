"""Tests for benchmark profiles and traffic generators."""

import pytest

from repro.core.grid import Grid
from repro.core.placement import by_name
from repro.workloads import (
    BENCHMARKS,
    RequestGenerator,
    WorkloadProfile,
    get,
    names,
    run_few_to_many,
    run_uniform,
    subset,
)


class TestProfiles:
    def test_twenty_nine_benchmarks(self):
        assert len(BENCHMARKS) == 29

    def test_suites(self):
        suites = {b.suite for b in BENCHMARKS}
        assert suites == {"rodinia", "cuda-sdk"}
        assert sum(1 for b in BENCHMARKS if b.suite == "rodinia") == 16

    def test_paper_mentioned_benchmarks_present(self):
        for name in ("kmeans", "heartwall", "monteCarlo", "particlefilter",
                     "fastWalshTransform", "scan", "sortingNetworks",
                     "gaussian", "myocyte"):
            assert get(name).name == name

    def test_names_unique(self):
        assert len(set(names())) == 29

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            get("crysis")

    def test_parameter_ranges_validated(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "t", 1.5, 0.5, 0.5, 0.5, 0.5)

    def test_subset_spans_spectrum(self):
        small = subset(5)
        assert len(small) == 5
        intensities = [b.intensity for b in small]
        assert min(intensities) < 0.05
        assert max(intensities) >= 0.15

    def test_intensity_spread(self):
        """The suite must span compute-bound to memory-bound."""
        intensities = sorted(b.intensity for b in BENCHMARKS)
        assert intensities[0] < 0.025
        assert intensities[-1] >= 0.18

    def test_read_dominance(self):
        """GPU workloads read far more than they write (section 2.2)."""
        mean_reads = sum(b.read_fraction for b in BENCHMARKS) / 29
        assert mean_reads > 0.7


class TestGenerator:
    def _gen(self, **kwargs):
        profile = get("kmeans")
        if kwargs:
            from dataclasses import replace

            profile = replace(profile, **kwargs)
        return RequestGenerator(profile, 8, seed=1, pe_index=0)

    def test_deterministic(self):
        a = self._gen()
        b = self._gen()
        seq_a = [a.maybe_issue() for _ in range(500)]
        seq_b = [b.maybe_issue() for _ in range(500)]
        assert [
            (r.is_read, r.cb_index, r.row_hit) if r else None for r in seq_a
        ] == [
            (r.is_read, r.cb_index, r.row_hit) if r else None for r in seq_b
        ]

    def test_mean_rate_tracks_intensity(self):
        gen = self._gen(burstiness=0.0, intensity=0.2)
        issued = sum(1 for _ in range(20000) if gen.maybe_issue())
        assert issued / 20000 == pytest.approx(0.2, rel=0.15)

    def test_bursty_rate_still_tracks_intensity(self):
        gen = self._gen(burstiness=0.6, intensity=0.2)
        issued = sum(1 for _ in range(40000) if gen.maybe_issue())
        assert issued / 40000 == pytest.approx(0.2, rel=0.25)

    def test_cb_distribution_roughly_uniform(self):
        gen = self._gen(intensity=1.0, burstiness=0.0)
        counts = [0] * 8
        for _ in range(8000):
            req = gen.maybe_issue()
            if req:
                counts[req.cb_index] += 1
        total = sum(counts)
        for c in counts:
            assert c / total == pytest.approx(1 / 8, rel=0.3)

    def test_read_fraction(self):
        gen = self._gen(intensity=1.0, burstiness=0.0, read_fraction=0.9)
        reqs = [gen.maybe_issue() for _ in range(5000)]
        reads = sum(1 for r in reqs if r and r.is_read)
        total = sum(1 for r in reqs if r)
        assert reads / total == pytest.approx(0.9, abs=0.03)

    def test_different_pes_different_streams(self):
        profile = get("kmeans")
        a = RequestGenerator(profile, 8, seed=1, pe_index=0)
        b = RequestGenerator(profile, 8, seed=1, pe_index=1)
        seq_a = [bool(a.maybe_issue()) for _ in range(200)]
        seq_b = [bool(b.maybe_issue()) for _ in range(200)]
        assert seq_a != seq_b


class TestSynthetic:
    def test_uniform_delivers_everything(self):
        result = run_uniform(Grid(4), 0.05, cycles=300, seed=0)
        assert result.received == result.sent
        assert result.network.idle()

    def test_few_to_many_heat_concentrates_at_cbs(self):
        grid = Grid(8)
        cbs = by_name("top", grid, 8).nodes
        result = run_few_to_many(grid, cbs, injection_rate=0.4, cycles=800)
        heat = result.network.stats.heatmap()
        cb_heat = max(heat[list(cbs)])
        # Hot routers sit at/near the injection row.
        assert cb_heat >= heat.mean()
        assert result.heatmap_variance > 0

    def test_nqueen_variance_lower_than_top(self):
        """The Figure-4 headline: N-Queen balances traffic best."""
        grid = Grid(8)
        top = run_few_to_many(grid, by_name("top", grid, 8).nodes,
                              injection_rate=0.45, cycles=1200, seed=3)
        nq = run_few_to_many(grid, by_name("nqueen", grid, 8).nodes,
                             injection_rate=0.45, cycles=1200, seed=3)
        assert nq.heatmap_variance < top.heatmap_variance
