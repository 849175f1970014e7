"""Content-addressed result store: addressing, durability, queries."""

import json

import pytest

from repro import __version__
from repro.harness import store as store_mod
from repro.harness.experiment import ExperimentConfig, config_digest
from repro.harness.runner import expand_grid, run_sweep
from repro.harness.store import (
    DirectoryResultStore,
    MemoryResultStore,
    make_record,
    record_result,
    resolve_store,
    result_key,
)

CFG = ExperimentConfig(quota=8, mcts_iterations=10)


def _result():
    cells = expand_grid(["SingleBase"], ["hotspot"], CFG)
    return run_sweep(cells).outcomes[0].result


@pytest.fixture(scope="module")
def result():
    return _result()


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryResultStore()
    return DirectoryResultStore(tmp_path / "results")


class TestAddressing:
    def test_key_is_stable(self):
        assert result_key("EquiNox", "hotspot", CFG) == result_key(
            "EquiNox", "hotspot", ExperimentConfig(quota=8,
                                                   mcts_iterations=10)
        )

    def test_key_covers_all_inputs(self):
        base = result_key("EquiNox", "hotspot", CFG)
        assert result_key("SingleBase", "hotspot", CFG) != base
        assert result_key("EquiNox", "tensor", CFG) != base
        assert result_key(
            "EquiNox", "hotspot", ExperimentConfig(quota=9,
                                                   mcts_iterations=10)
        ) != base
        # The package version is part of the address: a release that
        # could change behaviour invalidates every stored result.
        assert result_key("EquiNox", "hotspot", CFG,
                          version="0.0.0") != base

    def test_record_shape(self, result):
        record = make_record("SingleBase", "hotspot", CFG, result,
                             seed_used=0, attempts=1, duration_s=0.25)
        assert record["key"] == result_key("SingleBase", "hotspot", CFG)
        assert record["version"] == __version__
        assert record["config_digest"] == config_digest(CFG)
        assert record["width"] == CFG.width
        rebuilt = record_result(record)
        assert rebuilt == result  # bit-identical through the store

    def test_record_result_rejects_garbage(self):
        assert record_result({"result": None}) is None
        assert record_result({"result": {"bogus": 1}}) is None


class TestBackends:
    def test_roundtrip(self, store, result):
        record = make_record("SingleBase", "hotspot", CFG, result)
        store.put(record)
        fetched = store.get(record["key"])
        assert fetched["result"] == record["result"]
        assert record_result(fetched) == result
        assert len(store) == 1

    def test_miss_returns_none(self, store):
        assert store.get("0" * 24) is None

    def test_malformed_record_rejected(self, store):
        with pytest.raises(ValueError):
            store.put({"schema": 999, "key": "x", "result": {}})

    def test_query_filters(self, store, result):
        store.put(make_record("SingleBase", "hotspot", CFG, result))
        store.put(make_record("EquiNox", "hotspot", CFG, result))
        other = ExperimentConfig(quota=16, mcts_iterations=10)
        store.put(make_record("EquiNox", "hotspot", other, result))
        assert len(store.query()) == 3
        assert [r["scheme"] for r in store.query(scheme="EquiNox")] == [
            "EquiNox", "EquiNox",
        ]
        assert len(store.query(scheme="EquiNox",
                               config_digest=config_digest(CFG))) == 1
        assert store.query(scheme="NoSuch") == []
        assert len(store.query(width=CFG.width)) == 3
        assert store.query(width=16) == []


class TestDirectoryStore:
    def test_corrupt_entry_evicted(self, tmp_path, result):
        store = DirectoryResultStore(tmp_path)
        record = make_record("SingleBase", "hotspot", CFG, result)
        store.put(record)
        (path,) = tmp_path.glob("result-*.json")
        path.write_text("{torn")
        assert store.get(record["key"]) is None
        assert not path.exists()  # evicted, never trusted again

    def test_key_mismatch_evicted(self, tmp_path, result):
        store = DirectoryResultStore(tmp_path)
        record = make_record("SingleBase", "hotspot", CFG, result)
        store.put(record)
        (path,) = tmp_path.glob("result-*.json")
        # An entry renamed under the wrong address must be a miss: the
        # filename is the lookup key and must agree with the content.
        wrong = tmp_path / "result-deadbeefdeadbeefdeadbeef.json"
        path.rename(wrong)
        assert store.get("deadbeefdeadbeefdeadbeef") is None
        assert not wrong.exists()

    def test_no_temp_files_left_behind(self, tmp_path, result):
        store = DirectoryResultStore(tmp_path)
        store.put(make_record("SingleBase", "hotspot", CFG, result))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_query_skips_unparseable(self, tmp_path, result):
        store = DirectoryResultStore(tmp_path)
        store.put(make_record("SingleBase", "hotspot", CFG, result))
        (tmp_path / "result-notjson.json").write_text("{")
        assert len(store.query()) == 1

    def test_entries_are_sorted_json(self, tmp_path, result):
        store = DirectoryResultStore(tmp_path)
        store.put(make_record("SingleBase", "hotspot", CFG, result))
        (path,) = tmp_path.glob("result-*.json")
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True)


class TestResolution:
    def test_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.STORE_ENV, str(tmp_path))
        store = resolve_store(None)
        assert isinstance(store, DirectoryResultStore)
        assert store.root == tmp_path

    @pytest.mark.parametrize("sentinel", ["", "0", "off", "none",
                                          "disabled", " OFF "])
    def test_env_disables(self, sentinel, monkeypatch):
        monkeypatch.setenv(store_mod.STORE_ENV, sentinel)
        assert resolve_store(None) is None

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(store_mod.STORE_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        root = resolve_store(None).root
        assert root == tmp_path / "repro-equinox" / "results"

    def test_explicit_spec_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.STORE_ENV, "off")
        store = resolve_store(str(tmp_path / "mine"))
        assert store is not None and store.root == tmp_path / "mine"
        assert resolve_store("off") is None
