"""Deterministic telemetry artifacts: JSON/JSONL writers and aggregation.

One experiment exports one *record* (a plain dict built from the
registry by the harness); a sweep exports one JSONL file — a header
line, one record per cell, and a trailing sweep-summary line.  Records
are serialised with sorted keys and compact separators, so two runs of
the same deterministic simulation produce **byte-identical** artifacts
regardless of process boundaries or cache state (the export-determinism
test pins this).

Artifacts are keyed like the design disk cache: the file name carries
the experiment-config digest and every record carries the package
version, so a stale artifact is never mistaken for a current one.

Schema reference: ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .registry import SCHEMA_VERSION

PathLike = Union[str, Path]


def dumps_record(record: Dict[str, object]) -> str:
    """One record as a canonical single-line JSON string (no newline)."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def write_json(path: PathLike, record: Dict[str, object]) -> Path:
    """Write one record as a canonical JSON file (trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_record(record) + "\n")
    return path


def write_jsonl(
    path: PathLike, records: Iterable[Dict[str, object]]
) -> Path:
    """Write records as JSON lines (one canonical record per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [dumps_record(record) for record in records]
    path.write_text("\n".join(lines) + "\n" if lines else "")
    return path


def experiment_filename(
    scheme: str, benchmark: str, config_digest: str
) -> str:
    """Canonical artifact name for one experiment's telemetry record."""
    return f"run-{scheme}-{benchmark}-{config_digest}.json"


def sweep_filename(config_digest: str) -> str:
    """Canonical artifact name for one sweep's telemetry JSONL."""
    return f"sweep-{config_digest}.jsonl"


# ----------------------------------------------------------------------
# Aggregation (sweep-level report)
# ----------------------------------------------------------------------
def _series_mean(record: Dict[str, object], name: str) -> Optional[float]:
    series = record.get("series", {}).get(name)
    if not series:
        return None
    values = series.get("values") or []
    if not values:
        return None
    return sum(values) / len(values)


def _eir_balance(counters: Dict[str, float]) -> Optional[float]:
    """min/max ratio of per-EIR injected flits (1.0 = perfectly even).

    Counters named ``eir.cb<N>.eir<M>.flits_sent`` are grouped per CB;
    the CB's own buffer (``eir.cb<N>.local``) is not an EIR and does not
    count.  The reported figure is the worst (smallest) per-CB min/max
    ratio — the load-balance claim of the paper's Figures 4/7 in one
    number.
    """
    groups: Dict[str, List[float]] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if (len(parts) != 4 or parts[0] != "eir"
                or not parts[2].startswith("eir")
                or parts[3] != "flits_sent"):
            continue
        groups.setdefault(parts[1], []).append(float(value))
    worst: Optional[float] = None
    for values in groups.values():
        if len(values) < 2:
            continue
        top = max(values)
        ratio = (min(values) / top) if top else 1.0
        if worst is None or ratio < worst:
            worst = ratio
    return worst


def summarize_record(record: Dict[str, object]) -> Dict[str, object]:
    """Reduce one experiment record to the sweep-report row."""
    counters = record.get("counters", {})
    injected = sum(
        value for name, value in counters.items()
        if name.startswith("net.") and name.endswith(".flits_injected")
    )
    delivered = sum(
        value for name, value in counters.items()
        if name.startswith("net.") and name.endswith(".packets_delivered")
    )
    row: Dict[str, object] = {
        "scheme": record.get("scheme"),
        "benchmark": record.get("benchmark"),
        "samples": record.get("samples", 0),
        "flits_injected": injected,
        "packets_delivered": delivered,
    }
    balance = _eir_balance(counters)
    if balance is not None:
        row["eir_balance"] = balance
    depth = _series_mean(record, "hbm.queue_depth")
    if depth is not None:
        row["hbm_queue_depth_mean"] = depth
    return row


def aggregate_sweep(
    records: Iterable[Dict[str, object]], config_digest: str = ""
) -> Dict[str, object]:
    """Fold per-cell telemetry records into one sweep-summary record."""
    rows = [summarize_record(record) for record in records]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "sweep_summary",
        "config_digest": config_digest,
        "cells": rows,
        "total_flits_injected": sum(r["flits_injected"] for r in rows),
        "total_packets_delivered": sum(
            r["packets_delivered"] for r in rows
        ),
    }


def sweep_records(
    cell_records: List[Dict[str, object]],
    version: str,
    config_digest: str = "",
) -> List[Dict[str, object]]:
    """Assemble the full JSONL line sequence for one sweep artifact."""
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "sweep",
        "version": version,
        "config_digest": config_digest,
        "cells": len(cell_records),
    }
    summary = aggregate_sweep(cell_records, config_digest)
    return [header, *cell_records, summary]
