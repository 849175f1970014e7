"""Tests for the parallel sweep runner and the two-tier design cache.

The determinism contract is the load-bearing property: an identical
``(seed, config)`` run must produce bit-identical ``NetworkStats``
counters whether it executes serially or in worker processes, and
whether the design cache is cold or warmed from disk.
"""

import json
import os

import pytest

from repro.harness import cache
from repro.harness.experiment import ExperimentConfig, run_suite
from repro.harness.metrics import ExperimentResult, LatencyNs
from repro.harness.runner import (
    CellOutcome,
    SweepCell,
    SweepReport,
    cell_seed,
    expand_grid,
    run_sweep,
    sweep,
    warm_design_cache,
)
from repro.harness.store import DirectoryResultStore, make_record

CFG = ExperimentConfig(quota=8, mcts_iterations=10)


def _entry_writers(tmp_path):
    """Both users of the durable-entry pair in ``harness.cache``.

    One ``(write, path, content, read)`` tuple per user — the design
    cache calling the pair directly, the result store through
    ``put``/``get`` — so every durability property below is pinned for
    each of them.
    """
    entry = tmp_path / "cache" / "design-deadbeef.json"
    result = ExperimentResult(
        scheme="SingleBase", benchmark="hotspot", width=8, cycles=1,
        instructions=1, energy_nj=0.0, area_mm2=0.0,
        latency=LatencyNs(), reply_bits_fraction=0.0,
    )
    record = make_record("SingleBase", "hotspot", CFG, result)
    store = DirectoryResultStore(tmp_path / "store")
    return [
        (
            lambda: cache.write_entry(entry, {"k": 1}),
            entry,
            {"k": 1},
            lambda: cache.read_entry(entry, dict),
        ),
        (
            lambda: store.put(record),
            tmp_path / "store" / f"result-{record['key']}.json",
            record,
            lambda: store.get(record["key"]),
        ),
    ]


class TestGrid:
    def test_expand_grid_order_and_config(self):
        cells = expand_grid(["A", "B"], ["x", "y"], CFG)
        assert [c.key for c in cells] == [
            ("A", "x"), ("A", "y"), ("B", "x"), ("B", "y")
        ]
        assert all(c.config is CFG for c in cells)

    def test_cell_seed_deterministic_and_distinct(self):
        a = cell_seed(0, "EquiNox", "kmeans")
        assert a == cell_seed(0, "EquiNox", "kmeans")
        assert a != cell_seed(1, "EquiNox", "kmeans")
        assert a != cell_seed(0, "EquiNox", "bfs")
        assert a != cell_seed(0, "SingleBase", "kmeans")

    def test_reseed_cells_derives_per_cell_seeds(self):
        cells = expand_grid(["A"], ["x", "y"], CFG, reseed_cells=True)
        assert cells[0].config.seed == cell_seed(CFG.seed, "A", "x")
        assert cells[1].config.seed == cell_seed(CFG.seed, "A", "y")
        assert cells[0].config.seed != cells[1].config.seed
        assert cells[0].config.quota == CFG.quota


class TestRunSweep:
    def test_serial_records_timing_and_results(self):
        report = run_sweep(
            expand_grid(["SingleBase"], ["hotspot"], CFG), jobs=1
        )
        assert report.jobs == 1
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.duration_s > 0
        assert outcome.result.cycles > 0
        assert report.results()[("SingleBase", "hotspot")] is outcome.result
        assert "1 cells" in report.summary()

    def test_failed_cell_keeps_sweep_alive(self):
        cells = [
            SweepCell("SingleBase", "no-such-benchmark", CFG),
            SweepCell("SingleBase", "hotspot", CFG),
        ]
        report = run_sweep(cells, jobs=1)
        errors = report.errors()
        assert set(errors) == {("SingleBase", "no-such-benchmark")}
        assert "Traceback" in errors[("SingleBase", "no-such-benchmark")]
        assert ("SingleBase", "hotspot") in report.results()

    def test_run_suite_raises_on_failed_cell(self):
        with pytest.raises(RuntimeError, match="no-such-benchmark"):
            run_suite(["SingleBase"], ["no-such-benchmark"], CFG)

    def test_run_suite_error_lists_every_failed_cell(self):
        with pytest.raises(RuntimeError) as exc_info:
            run_suite(["SingleBase", "EquiNox"], ["no-such-benchmark"], CFG)
        lines = str(exc_info.value).splitlines()
        assert lines[:4] == [
            "2 sweep cell(s) failed:",
            "  SingleBase x no-such-benchmark",
            "  EquiNox x no-such-benchmark",
            "first traceback:",
        ]
        assert lines[4].startswith("Traceback")

    def test_stall_dump_captured_from_failed_cell(self, monkeypatch):
        """Watchdog/audit failures carry their diagnostic dump into the
        sweep report instead of burying it in the traceback text."""
        from repro.gpu.system import SimulationStall
        from repro.harness import runner

        def stall(scheme, benchmark, config):
            raise SimulationStall(
                "no network progress", dump="=== network 'request' ==="
            )

        monkeypatch.setattr(runner, "run_experiment", stall)
        report = run_sweep([SweepCell("SingleBase", "hotspot", CFG)], jobs=1)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert outcome.stall_dump == "=== network 'request' ==="

    def test_plain_failure_has_no_stall_dump(self):
        report = run_sweep(
            [SweepCell("SingleBase", "no-such-benchmark", CFG)], jobs=1
        )
        assert report.outcomes[0].stall_dump is None

    def test_run_suite_matches_runner(self):
        suite = run_suite(["SingleBase"], ["hotspot"], CFG)
        report = sweep(["SingleBase"], ["hotspot"], CFG)
        key = ("SingleBase", "hotspot")
        assert suite[key].stats_fingerprint == (
            report.results()[key].stats_fingerprint
        )


class TestMixedConfigReport:
    """Two outcomes on one ``(scheme, benchmark)`` key, built by hand."""

    @staticmethod
    def _report():
        def outcome(width, error):
            result = None if error else ExperimentResult(
                scheme="EquiNox", benchmark="kmeans", width=width,
                cycles=1, instructions=1, energy_nj=1.0, area_mm2=1.0,
                latency=LatencyNs(), reply_bits_fraction=0.5,
                pe_stall_cycles=0, cb_stall_cycles=0,
                stats_fingerprint="ab",
            )
            cell = SweepCell("EquiNox", "kmeans",
                             ExperimentConfig(width=width))
            return CellOutcome(cell, result, error, 1.0, 1,
                               stall_dump=error and "dump")
        return SweepReport([outcome(12, None), outcome(16, "boom"),
                            outcome(16, "bang")], wall_s=3.0, jobs=1)

    @pytest.mark.parametrize("accessor", ["results", "errors"])
    def test_keyed_accessors_refuse_to_collapse(self, accessor):
        with pytest.raises(ValueError) as info:
            getattr(self._report(), accessor)()
        assert "width=12" in str(info.value)
        assert "width=16" in str(info.value)

    def test_summary_counts_every_failed_outcome(self):
        assert "3 cells, 2 failed" in self._report().summary()


class TestDeterminism:
    SCHEMES = ["SingleBase", "EquiNox"]
    BENCHMARKS = ["hotspot"]

    def test_serial_parallel_and_cache_tiers_bit_identical(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        serial = sweep(self.SCHEMES, self.BENCHMARKS, CFG, jobs=1).results()
        parallel = sweep(self.SCHEMES, self.BENCHMARKS, CFG,
                         jobs=2).results()
        cache.clear()  # memory dropped; disk tier stays warm
        warmed = sweep(self.SCHEMES, self.BENCHMARKS, CFG, jobs=1).results()
        assert set(serial) == set(parallel) == set(warmed)
        for key in serial:
            runs = (serial[key], parallel[key], warmed[key])
            fingerprints = {r.stats_fingerprint for r in runs}
            assert len(fingerprints) == 1, key
            assert len({r.cycles for r in runs}) == 1, key
            assert len({r.energy_nj for r in runs}) == 1, key
            assert runs[0].stats_fingerprint  # non-empty digest


class TestDiskCache:
    def test_design_survives_process_cache_clear(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        first = cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        stored = list(tmp_path.glob("design-*.json"))
        assert len(stored) == 1
        cache.clear()
        second = cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        assert second is not first
        assert second.eir_design == first.eir_design

    def test_placement_survives_process_cache_clear(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        first = cache.placement("diamond", 8)
        assert list(tmp_path.glob("placement-*.json"))
        cache.clear()
        second = cache.placement("diamond", 8)
        assert second is not first
        assert second == first

    def test_corrupt_entry_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        (entry,) = tmp_path.glob("design-*.json")
        entry.write_text("{not json")
        cache.clear()
        design = cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        assert design is not None
        assert json.loads(entry.read_text())["version"] >= 1  # rewritten

    def test_disk_write_fsyncs_before_publishing(self, tmp_path,
                                                 monkeypatch):
        # Durability regression: the temp file's bytes must be forced
        # to disk (fsync) before os.replace publishes them under the
        # entry name — otherwise a power loss right after the rename
        # can leave a torn entry under the real key.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(cache.os, "fsync", spy_fsync)
        monkeypatch.setattr(cache.os, "replace", spy_replace)
        for write, path, content, _read in _entry_writers(tmp_path):
            events.clear()
            write()
            assert "fsync" in events and "replace" in events, path
            assert events.index("fsync") < events.index("replace"), path
            assert json.loads(path.read_text()) == content

    def test_disk_write_fsyncs_directory_after_publishing(self, tmp_path,
                                                          monkeypatch):
        # Durability regression (the other half of the torn-write
        # fix): os.replace lives in the directory's entry table, so
        # without a directory fsync *after* the rename a power loss
        # can silently undo the publish even though the entry's bytes
        # were durable.  Detect the directory fsync by fd: it is the
        # only fsync on a directory file descriptor.
        import stat

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append("fsync-dir" if stat.S_ISDIR(mode) else "fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(cache.os, "fsync", spy_fsync)
        monkeypatch.setattr(cache.os, "replace", spy_replace)
        for write, path, _content, _read in _entry_writers(tmp_path):
            events.clear()
            write()
            assert "fsync-dir" in events, path
            assert events.index("replace") < events.index("fsync-dir"), path

    def test_torn_write_never_visible_under_entry_name(self, tmp_path,
                                                       monkeypatch):
        # A writer that dies before the rename must leave the entry
        # name absent (a clean miss) and clean up its temp file — a
        # reader must never see a half-written JSON under the key.
        def crash_replace(src, dst):
            raise OSError("simulated crash before publish")

        monkeypatch.setattr(cache.os, "replace", crash_replace)
        for write, path, _content, read in _entry_writers(tmp_path):
            write()
            assert not path.exists()
            assert list(path.parent.glob("*.tmp")) == []
            assert read() is None  # a miss, not an error

    def test_orphaned_tmp_files_are_never_read(self, tmp_path):
        # A hard crash (kill -9) can orphan a mkstemp file; entries are
        # only ever read via their .json path, so the orphan must not
        # poison the store or shadow the real entry once written.
        cache.clear()
        for write, path, content, read in _entry_writers(tmp_path):
            path.parent.mkdir(parents=True)
            (path.parent / f"{path.name}orphanXYZ.tmp").write_text("{torn")
            assert read() is None
            write()
            assert read() == content
        assert cache.corrupt_evictions() == 0  # orphans never parsed

    def test_key_includes_parameters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        cache.equinox_design(8, 8, iterations_per_level=10, seed=0)
        cache.equinox_design(8, 8, iterations_per_level=10, seed=1)
        assert len(list(tmp_path.glob("design-*.json"))) == 2

    def test_disk_tier_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert cache.cache_dir() is None
        cache.clear()
        cache.placement("diamond", 8)  # must not raise without a store
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache.cache_dir() == tmp_path

    def test_warm_design_cache_covers_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache.clear()
        cells = expand_grid(["SingleBase", "EquiNox"], ["hotspot"], CFG)
        warm_design_cache(cells)
        assert list(tmp_path.glob("design-*.json"))
        assert list(tmp_path.glob("placement-*.json"))
