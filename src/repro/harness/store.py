"""Content-addressed result store for completed sweep cells.

One entry per ``(scheme, benchmark, fully-resolved config, package
version)`` — the address is a hash over exactly the inputs that
determine the result bytes, so a lookup either returns the
bit-identical result any correct run would produce, or misses.  That
makes the store safe to share between sweeps, workers and hosts: a
16x16 design-space query ("give me scheme X at 16x16") is answered in
O(lookup) without re-simulating, and a worker that finds its leased
cell in the store can ack the stored result without running anything —
the determinism contract guarantees the bytes match what it would have
computed.

The backend is :class:`DirectoryResultStore`: one fsynced JSON file per
entry, written and read through the design cache's durable-entry pair
(:func:`~repro.harness.cache.write_entry` /
:func:`~repro.harness.cache.read_entry`), safe for concurrent writers
because every entry is immutable under its address.

The package version is part of the address, so a release that could
change simulation behaviour silently invalidates every stored result
instead of serving stale bytes.  Corrupt entries are treated as
misses and evicted, never trusted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .cache import DISABLED, env_dir, read_entry, write_entry
from .experiment import ExperimentConfig, config_digest
from .metrics import ExperimentResult, result_from_dict, result_to_dict

STORE_SCHEMA = 1
STORE_ENV = "REPRO_STORE_DIR"


def _version() -> str:
    from .. import __version__

    return __version__


def result_key(
    scheme: str,
    benchmark: str,
    config: ExperimentConfig,
) -> str:
    """The content address of one cell's result."""
    payload = f"{_version()}:{scheme}:{benchmark}:{config_digest(config)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def make_record(
    scheme: str,
    benchmark: str,
    config: ExperimentConfig,
    result: ExperimentResult,
    seed_used: Optional[int] = None,
    attempts: int = 1,
    duration_s: float = 0.0,
) -> Dict[str, object]:
    """The plain-JSON store entry for one completed cell."""
    return {
        "schema": STORE_SCHEMA,
        "key": result_key(scheme, benchmark, config),
        "version": _version(),
        "scheme": scheme,
        "benchmark": benchmark,
        "width": config.width,
        "config_digest": config_digest(config),
        "seed": config.seed,
        "seed_used": seed_used,
        "attempts": attempts,
        "duration_s": duration_s,
        "result": result_to_dict(result),
    }


def record_result(record: Dict[str, object]) -> Optional[ExperimentResult]:
    """Rebuild the :class:`ExperimentResult` inside a store record."""
    data = record.get("result")
    if not isinstance(data, dict):
        return None
    try:
        return result_from_dict(data)
    except (TypeError, ValueError):
        return None


def _valid_record(record: object) -> bool:
    return (
        isinstance(record, dict)
        and record.get("schema") == STORE_SCHEMA
        and isinstance(record.get("key"), str)
        and isinstance(record.get("result"), dict)
    )


def _matches(
    record: Dict[str, object],
    scheme: Optional[str],
    benchmark: Optional[str],
    width: Optional[int],
) -> bool:
    if scheme is not None and record.get("scheme") != scheme:
        return False
    if benchmark is not None and record.get("benchmark") != benchmark:
        return False
    return width is None or record.get("width") == width


class DirectoryResultStore:
    """One immutable fsynced JSON file per entry under ``root``.

    ``get`` is O(1) (the filename is the address); ``query`` scans.
    Entries are only ever written whole
    (:func:`~repro.harness.cache.write_entry`), so concurrent workers
    racing to store the same key land byte-identical bytes and readers
    can never observe a torn entry.
    """

    def __init__(self, root: object) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"result-{key}.json"

    def put(self, record: Dict[str, object]) -> None:
        if not _valid_record(record):
            raise ValueError("malformed store record")
        write_entry(self._path(record["key"]), record)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        def parse(record: object) -> Dict[str, object]:
            # The filename is the lookup key and must agree with the
            # content; anything else is corrupt: evict, never trust.
            if not _valid_record(record) or record["key"] != key:
                raise ValueError("not the record stored under this key")
            return record

        return read_entry(self._path(key), parse)

    def _iter_records(self) -> Iterator[Dict[str, object]]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("result-*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if _valid_record(record):
                yield record

    def query(
        self,
        scheme: Optional[str] = None,
        benchmark: Optional[str] = None,
        width: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        return sorted(
            (
                record for record in self._iter_records()
                if _matches(record, scheme, benchmark, width)
            ),
            key=lambda r: (r["scheme"], r["benchmark"], r["key"]),
        )

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_records())


def resolve_store(spec: Optional[str]) -> Optional[DirectoryResultStore]:
    """A store from a CLI/config spec: a path, ``off``, or ``None``.

    ``None`` defers to the environment: ``$REPRO_STORE_DIR``, else
    ``results/`` under the user cache dir
    (:func:`~repro.harness.cache.env_dir`).  The disabling sentinels
    return ``None``.
    """
    if spec is None:
        root = env_dir(STORE_ENV, "results")
        return DirectoryResultStore(root) if root is not None else None
    if spec.strip().lower() in DISABLED:
        return None
    return DirectoryResultStore(spec)
