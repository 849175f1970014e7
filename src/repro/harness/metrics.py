"""Result records and normalisation helpers for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass
class LatencyNs:
    """Mean packet latency in nanoseconds, split like the paper's Fig 10."""

    request_queuing: float = 0.0
    request_non_queuing: float = 0.0
    reply_queuing: float = 0.0
    reply_non_queuing: float = 0.0

    @property
    def request_total(self) -> float:
        return self.request_queuing + self.request_non_queuing

    @property
    def reply_total(self) -> float:
        return self.reply_queuing + self.reply_non_queuing

    @property
    def total(self) -> float:
        return self.request_total + self.reply_total


@dataclass
class ExperimentResult:
    """Plain-data outcome of one (scheme, benchmark, size) run."""

    scheme: str
    benchmark: str
    width: int
    cycles: int
    instructions: int
    energy_nj: float
    area_mm2: float
    latency: LatencyNs
    reply_bits_fraction: float
    pe_stall_cycles: int = 0
    cb_stall_cycles: int = 0
    # sha256 over every network's full counter snapshot; two runs of the
    # same (seed, config) must agree bit-for-bit (determinism tests).
    stats_fingerprint: str = ""
    # Fault-injection ledger totals over all networks (0 without faults).
    flits_dropped: int = 0
    packets_recovered: int = 0
    # Telemetry record (repro.telemetry export schema) when the run was
    # sampled; None otherwise.  Plain JSON data: rides through the
    # work-queue bus and the result store unchanged.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def execution_ns(self) -> float:
        from ..schemes.base import BASE_FREQUENCY_GHZ

        return self.cycles / BASE_FREQUENCY_GHZ

    @property
    def edp(self) -> float:
        """Energy-delay product (nJ * ns)."""
        return self.energy_nj * self.execution_ns


def result_to_dict(result: ExperimentResult) -> Dict[str, object]:
    """Plain-JSON form of a result (bus records, store entries, reports).

    Floats round-trip exactly through ``json`` (repr-based), so a
    stored result restores bit-identical to the original — the
    crash-safe resume path relies on this.
    """
    from dataclasses import asdict

    return asdict(result)


def result_from_dict(data: Mapping[str, object]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    payload = dict(data)
    latency = payload.get("latency")
    if isinstance(latency, Mapping):
        payload["latency"] = LatencyNs(**latency)
    return ExperimentResult(**payload)


def normalize(
    values: Mapping[str, float], baseline: str
) -> Dict[str, float]:
    """Normalise a scheme->value mapping to one scheme's value."""
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} missing from {sorted(values)}")
    base = values[baseline]
    if base == 0:
        raise ValueError("baseline value is zero")
    return {name: value / base for name, value in values.items()}


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values.

    A zero or negative input means an upstream metric is broken (an
    IPC of 0 from a failed cell, a negative latency delta) — silently
    folding it in would poison a whole normalized sweep table (a zero
    would drag the mean to 0.0, a negative would raise a bare complex-
    power error).  Report exactly which inputs are bad instead.
    """
    if not values:
        return 0.0
    bad = [
        (index, v) for index, v in enumerate(values)
        if not v > 0  # catches zero, negatives, and NaN
    ]
    if bad:
        shown = ", ".join(f"[{i}]={v!r}" for i, v in bad[:5])
        more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
        raise ValueError(
            f"geomean requires positive values; got {len(bad)} "
            f"non-positive of {len(values)}: {shown}{more}"
        )
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render a plain-text table (the harness's figure output format)."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append(
            [
                f"{cell:.3f}" if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(r[i]) for r in rendered) for i in range(len(headers))
    ]
    lines = []
    for idx, row in enumerate(rendered):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
