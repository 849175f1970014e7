"""Self-tests of the benchmark's own machinery (not of ``repro``).

Run as ``python -m pytest bench -q``; tier-1 does not collect this file
(``testpaths = ["tests"]``).  Nothing here runs a full workload: the
traced fabric driver is checked on a 4x4 mesh, everything else on
synthetic data.
"""

from __future__ import annotations

import json
import re

import catalog
import common
import compare
import pytest
import run
import spans

common.add_src_to_path()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_what_the_catalog_declares():
    doc = declared()
    assert doc == catalog.contract(doc["run_seconds"], doc["command"], doc["paths"])
    assert doc["command"][-1] == "bench/run.py" and doc["paths"] == ["bench"]
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(NAME.fullmatch(m.name) for m in catalog.METRICS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload", catalog.ALL)
@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_emitted_names_equal_declared_names(workload, kind):
    out = common.Outcome(workload=workload, kind=kind, seed=1)
    for metric in catalog.of_kind(kind):
        if workload in metric.workloads:
            out.put(metric.name, 1.5)
    out.op(True)
    line = run.final_line([out], common.DEFAULT_OUT / "result.json")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in declared()[kind]]
    units = {m["name"]: m["unit"] for m in declared()[kind]}
    assert {n: e["unit"] for n, e in line["metrics"].items()} == units


def test_undeclared_or_unmeasured_metrics_are_errors():
    out = common.Outcome(workload=catalog.VERIFY, kind="end_to_end", seed=1)
    with pytest.raises(KeyError):
        out.put("not.a.metric", 1.0)
    with pytest.raises(KeyError):
        run.contract_metrics(out)  # setup_s is defined here but missing


def test_injected_failing_check_raises_failed_fraction_and_exit_code():
    out = common.Outcome(workload=catalog.VERIFY, kind="end_to_end", seed=1)
    out.op(True)
    out.check("fine", True)
    assert out.correct and run.exit_code([out]) == 0
    out.check("injected failure", False, "on purpose")
    assert (out.attempted, out.failed) == (3, 1)
    assert not out.correct and run.exit_code([out]) == 1
    assert "FAILED check: injected failure" in run.render(out)


def test_span_self_time_arithmetic():
    rec = spans.Recorder("synthetic")
    with rec.span("cell", "harness") as cell:
        build = rec.add("build", "schemes", 0.0, 2.0)
        with rec.span("run", "gpu") as loop:
            rec.add("tick", "noc", 0.0, 9.0, busy=4.0, calls=400)
            rec.add("cb", "gpu", 0.0, 9.0, busy=1.5, calls=400)
        loop.busy = 7.0
    cell.busy = 10.0
    own = spans.self_times(rec.spans)
    assert own[cell.id] == pytest.approx(10.0 - 2.0 - 7.0)
    assert own[build.id] == pytest.approx(2.0)
    assert own[loop.id] == pytest.approx(7.0 - 4.0 - 1.5)
    by_layer = spans.self_by(rec.spans, lambda s: s.layer)
    assert by_layer == pytest.approx(
        {"harness": 1.0, "schemes": 2.0, "gpu": 3.0, "noc": 4.0}
    )
    assert sum(by_layer.values()) == pytest.approx(spans.root_busy(rec.spans))
    assert spans.dominant(rec.spans, lambda s: True) == ("tick", pytest.approx(0.4))


def test_wrapped_methods_fold_into_one_aggregate_per_parent():
    class Bank:
        def __init__(self):
            self.ticks = 0

        def tick(self):
            self.ticks += 1
            return self.ticks

    rec = spans.Recorder("synthetic")
    banks = [Bank(), Bank()]
    for bank in banks:
        rec.wrap(bank, "gpu", {"tick": "gpu.cb"})
    for cell in ("a", "b"):
        with rec.span(cell, "harness"):
            for _ in range(3):
                assert [bank.tick() for bank in banks]
    aggregates = [s for s in rec.spans if s.name == "gpu.cb"]
    assert [(s.parent, s.calls) for s in aggregates] == [(0, 6), (2, 6)]
    assert all(0.0 <= s.busy <= s.end - s.start for s in aggregates)
    assert banks[0].ticks == 6 and Bank().tick() == 1  # class untouched


def test_tail_percentile_needs_ten_samples_beyond():
    assert catalog.pick_tail_percentile(27) == 60  # -> cell_s_p60
    assert catalog.samples_beyond(27, 60) == 10
    assert catalog.samples_beyond(27, 70) < catalog.MIN_BEYOND
    assert catalog.pick_tail_percentile(2700) == 99
    assert catalog.pick_tail_percentile(20016) == 99.9
    assert catalog.pick_tail_percentile(5) == 50
    assert catalog.percentile(range(1, 28), 60) == 17
    assert catalog.percentile([3.0], 99) == 3.0


def test_spread_is_the_drivers_quartile_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.6]
    assert catalog.spread(values) == pytest.approx(0.45 / 10.05)
    assert catalog.spread([2.0, 3.0]) == pytest.approx(0.4)
    assert catalog.spread([1.0]) is None


def _doc(value, sim="abc", spread=None, metric="wall_s", seed=1):
    entry = {"value": value, "unit": "s"}
    if spread is not None:
        entry["spread"] = spread
    out = {"seed": seed, "metrics": {metric: entry}, "sim": {"checksum": sim}}
    return {"workloads": {"w": {"end_to_end": out}}}


def test_compare_applies_each_metrics_own_bound():
    def verdicts(a, b, same_code=False):
        rows, agree = compare.compare(a, b, same_code)
        return [r["verdict"] for r in rows], agree

    bound = catalog.BY_NAME["wall_s"].bound
    inside, beyond = 10.0 * (1 + 0.9 * bound), 10.0 * (1 + 1.1 * bound)
    assert verdicts(_doc(10.0), _doc(inside)) == (["ok"], True)
    assert verdicts(_doc(10.0), _doc(beyond)) == (["worse"], False)
    assert verdicts(_doc(10.0), _doc(5.0)) == (["ok"], True)
    # A side whose own rounds spread wider than the bound cannot resolve it.
    noisy = _doc(10.0, spread=1.1 * bound)
    assert verdicts(noisy, _doc(10.1)) == (["unresolved"], False)
    # Same code: a gap beyond the bound in either direction is noise.
    better = 10.0 * (1 - 1.1 * bound)
    assert verdicts(_doc(10.0), _doc(better), True) == (["unresolved"], False)
    assert verdicts(_doc(10.0), _doc(better)) == (["ok"], True)
    assert verdicts(_doc(10.0), _doc(inside), True) == (["ok"], True)
    # Same code and seed: simulated values must repeat exactly.
    assert verdicts(_doc(10.0), _doc(10.0, sim="xyz"), True) == (
        ["ok", "differs"], False,
    )
    # Absolute bound, and an exact metric between two commits.
    gap = dict(metric="fidelity_gap_pp")
    assert verdicts(_doc(29.4, **gap), _doc(29.8, **gap)) == (["ok"], True)
    assert verdicts(_doc(29.4, **gap), _doc(30.0, **gap)) == (["worse"], False)
    assert verdicts(_doc(29.4, **gap), _doc(29.8, **gap), True) == (
        ["differs"], False,
    )
    assert "B/A" in compare.render(compare.compare(_doc(1.0), _doc(1.1), False)[0])


def test_traced_driver_replays_run_uniform_exactly():
    import wl_fabric
    from repro.core.grid import Grid
    from repro.workloads.synthetic import run_uniform

    cfg = {"width": 4, "rate": 0.1, "cycles": 60}
    for engine in catalog.ENGINES:
        want = run_uniform(
            Grid(4), cfg["rate"], cycles=cfg["cycles"], seed=7,
            scheduler=wl_fabric.SCHEDULER, engine=engine,
        )
        rec = spans.Recorder("synthetic")
        rep = wl_fabric.replay(rec, cfg, 7, engine)
        assert rep["checksum"] == wl_fabric.checksum(want.network)
        assert (rep["cycles"], rep["sent"], rep["received"]) == (
            want.cycles, want.sent, want.received,
        )
        assert rep["idle"] and len(rep["ticks"]) == rep["cycles"]
        by_layer = spans.self_by(rec.spans, lambda s: s.layer)
        assert sum(by_layer.values()) == pytest.approx(rep["wall_s"])
        assert rep["driver_s"] == pytest.approx(by_layer["workloads"])


def test_sandbox_scrubs_knobs_and_cleans_up(tmp_path, monkeypatch):
    import os
    import tempfile

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/nonexistent/cache")
    with common.sandbox(tmp_path) as work:
        assert "REPRO_ENGINE" not in os.environ
        assert os.environ["REPRO_CACHE_DIR"].startswith(str(work))
        assert tempfile.gettempdir().startswith(str(work))
        assert work.parent == tmp_path
    assert os.environ["REPRO_ENGINE"] == "vector"
    assert os.environ["REPRO_CACHE_DIR"] == "/nonexistent/cache"
    assert not work.exists() and list(tmp_path.iterdir()) == []
