"""Telemetry: a lightweight metrics registry with time-series export.

See :mod:`repro.telemetry.registry` for the live registry components
register probes into, and :mod:`repro.telemetry.export` for the
deterministic JSON/JSONL artifact layer.  ``docs/TELEMETRY.md``
documents the exported schema; the README's "Observability" section
documents the ``--telemetry`` / ``REPRO_TELEMETRY`` knobs.
"""

from .export import (
    aggregate_sweep,
    dumps_record,
    experiment_filename,
    read_jsonl,
    summarize_record,
    sweep_filename,
    sweep_records,
    write_json,
    write_jsonl,
)
from .registry import (
    DEFAULT_INTERVAL,
    SCHEMA_VERSION,
    ResidencyProbe,
    SeriesSampler,
    TelemetryRegistry,
)

__all__ = [
    "DEFAULT_INTERVAL",
    "SCHEMA_VERSION",
    "ResidencyProbe",
    "SeriesSampler",
    "TelemetryRegistry",
    "aggregate_sweep",
    "dumps_record",
    "experiment_filename",
    "read_jsonl",
    "summarize_record",
    "sweep_filename",
    "sweep_records",
    "write_json",
    "write_jsonl",
]
