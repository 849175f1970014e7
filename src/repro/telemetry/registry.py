"""The metrics registry: counters, gauges and windowed time series.

Components register probes at construction time; the harness samples
the registry at a configurable base-cycle interval.  Three probe kinds
cover the paper's time-varying quantities:

* **finals** — lazily-evaluated counters, read once at export time
  (per-EIR injected-flit totals, run length, stall cycles).  Zero cost
  during the run.
* **series** — a callable sampled every interval into a bounded window
  of ``(cycle, value)`` pairs (NI buffer occupancy, HBM queue depth,
  in-flight flits).
* **residency** — sampled membership counts over a fixed index space
  (which routers were in the active set, per sample).

Everything the registry does is *read-only* with respect to the
simulation: enabling telemetry must keep ``stats_fingerprint``
bit-identical, and the differential test in ``tests/test_telemetry.py``
pins that.  When telemetry is disabled the harness carries ``None``
(one ``is None`` test per cycle).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

SCHEMA_VERSION = 1
"""Version of the exported telemetry record layout."""

DEFAULT_INTERVAL = 100
"""Base cycles between samples when telemetry is enabled bare (``=1``)."""

SERIES_WINDOW = 4096
"""Samples a series retains (oldest evicted first)."""


class SeriesSampler:
    """One windowed time series: ``fn()`` sampled into a bounded deque."""

    __slots__ = ("name", "fn", "cycles", "values")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn
        self.cycles = deque(maxlen=SERIES_WINDOW)
        self.values = deque(maxlen=SERIES_WINDOW)

    def sample(self, cycle: int) -> None:
        self.cycles.append(cycle)
        self.values.append(self.fn())

    def export(self) -> Dict[str, list]:
        return {"cycles": list(self.cycles), "values": list(self.values)}


class ResidencyProbe:
    """Sampled membership counts over ``size`` indices.

    Each sample increments ``counts[i]`` for every index ``i`` the
    callable reports as occupied; ``counts[i] / samples`` is then the
    fraction of samples index ``i`` was resident (e.g. a router's
    active-set residency).
    """

    __slots__ = ("name", "size", "fn", "samples", "counts")

    def __init__(
        self, name: str, size: int, fn: Callable[[], Iterable[int]]
    ) -> None:
        self.name = name
        self.size = size
        self.fn = fn
        self.samples = 0
        self.counts = [0] * size

    def sample(self, _cycle: int) -> None:
        self.samples += 1
        counts = self.counts
        for index in self.fn():
            counts[index] += 1

    def export(self) -> Dict[str, object]:
        return {"samples": self.samples, "counts": list(self.counts)}


class TelemetryRegistry:
    """A live metrics registry for one simulation run."""

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be positive; use "
                             "None (no registry) to disable telemetry")
        self.interval = interval
        self.samples = 0
        self._last_sample_cycle: Optional[int] = None
        self._series: List[SeriesSampler] = []
        self._residency: List[ResidencyProbe] = []
        self._finals: List[tuple] = []  # (name, fn)

    # ------------------------------------------------------------------
    # Registration (components call these at construction)
    # ------------------------------------------------------------------
    def register_series(
        self, name: str, fn: Callable[[], float]
    ) -> SeriesSampler:
        """Sample ``fn()`` every interval into a bounded window."""
        sampler = SeriesSampler(name, fn)
        self._series.append(sampler)
        return sampler

    def register_residency(
        self, name: str, size: int, fn: Callable[[], Iterable[int]]
    ) -> ResidencyProbe:
        """Count per-index membership of ``fn()``'s result per sample."""
        probe = ResidencyProbe(name, size, fn)
        self._residency.append(probe)
        return probe

    def register_final(self, name: str, fn: Callable[[], float]) -> None:
        """Evaluate ``fn()`` once at export time into a counter."""
        self._finals.append((name, fn))

    # ------------------------------------------------------------------
    # Sampling (the harness drives this)
    # ------------------------------------------------------------------
    def sample(self, cycle: int) -> None:
        """Take one sample at ``cycle`` (same-cycle repeats are no-ops)."""
        if cycle == self._last_sample_cycle:
            return
        self._last_sample_cycle = cycle
        self.samples += 1
        for sampler in self._series:
            sampler.sample(cycle)
        for probe in self._residency:
            probe.sample(cycle)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> Dict[str, object]:
        """The registry's content as plain, JSON-ready data.

        Deterministic for a deterministic simulation: no wall-clock
        times, pids or dict-order dependence (keys are emitted sorted
        by the JSON writer).
        """
        return {
            "interval": self.interval,
            "samples": self.samples,
            "counters": {name: fn() for name, fn in self._finals},
            "series": {s.name: s.export() for s in self._series},
            "residency": {p.name: p.export() for p in self._residency},
        }
