"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's side of each layer boundary —
around calls into ``repro``'s public functions and by shadowing
methods on live objects — never from inside ``src/``.

Two span shapes share one record:

* a *plain* span covers one interval (``busy == end - start``);
* an *aggregate* span folds every call of one per-cycle method under
  one parent (e.g. all ``fabric.tick()`` calls of one sweep cell) into a
  single record: ``start``/``end`` bracket the first and last call,
  ``calls`` counts them and ``busy`` is the summed call time.

Self time is uniform across both: ``busy`` minus the ``busy`` of direct
children.  Every instant inside a root span is therefore attributed to
exactly one span, and per-layer self times sum to the root's duration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    layer: str
    workload: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    busy: float = 0.0
    calls: int = 1
    cell: str = ""


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> busy time not covered by its direct children."""
    out = {span.id: span.busy for span in spans}
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.busy
    return out


def self_by(spans: Sequence[Span], key: Callable[[Span], str]) -> Dict[str, float]:
    """Self time summed per ``key(span)`` (e.g. per layer or per name)."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        k = key(span)
        out[k] = out.get(k, 0.0) + own[span.id]
    return out


def root_busy(spans: Sequence[Span]) -> float:
    return sum(span.busy for span in spans if span.parent is None)


class _Open:
    """Context manager for one plain span."""

    __slots__ = ("rec", "span")

    def __init__(self, rec: "Recorder", span: Span) -> None:
        self.rec = rec
        self.span = span

    def __enter__(self) -> Span:
        self.rec._stack.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        span = self.span
        span.end = perf_counter()
        span.busy = span.end - span.start
        self.rec._stack.pop()


class Recorder:
    """Collects the spans of one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._aggregates: Dict[Tuple[Optional[int], str], Span] = {}
        self.cell = ""

    def _new(self, name: str, layer: str, calls: int) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            id=len(self.spans), name=name, layer=layer, workload=self.workload,
            parent=parent, start=0.0, calls=calls, cell=self.cell,
        )
        self.spans.append(span)
        return span

    def span(self, name: str, layer: str) -> _Open:
        return _Open(self, self._new(name, layer, 1))

    def timed(self, name: str, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so its calls fold into one aggregate per parent.

        Callables timed under the same ``name`` share that aggregate, so
        e.g. all 56 PEs of a cell make one ``gpu.pe`` span, not 56.
        """
        stack = self._stack
        aggregates = self._aggregates

        def call(*args, **kwargs):
            key = (stack[-1].id if stack else None, name)
            agg = aggregates.get(key)
            if agg is None:
                agg = aggregates[key] = self._new(name, layer, 0)
                agg.start = perf_counter()
            stack.append(agg)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                agg.busy += t1 - t0
                agg.calls += 1
                agg.end = t1

        return call

    def add(
        self, name: str, layer: str, start: float, end: float,
        busy: Optional[float] = None, calls: int = 1,
    ) -> Span:
        """Record a span from timings taken by the caller.

        With ``busy`` and ``calls`` it is an aggregate of calls the
        caller timed itself; without, one plain interval.
        """
        span = self._new(name, layer, calls)
        span.start, span.end = start, end
        span.busy = end - start if busy is None else busy
        return span

    def wrap(self, target: object, layer: str, methods: Dict[str, str]) -> None:
        """Time ``methods`` of one live object, in place.

        ``methods`` maps a method name to the aggregate span name its
        calls fold into.  The timed callable is set as an *instance*
        attribute, shadowing the class's method for this object only;
        calls the object makes on itself through the class are not
        affected, and nothing under ``src/`` is edited.
        """
        for method, name in methods.items():
            setattr(target, method, self.timed(name, layer, getattr(target, method)))

    def write(self, path: Path, extra: Optional[Dict] = None) -> None:
        doc = {
            "workload": self.workload,
            "clock": "time.perf_counter (host seconds)",
            "spans": [asdict(s) for s in self.spans],
            "self_s_by_layer": self_by(self.spans, lambda s: s.layer),
            "self_s_by_name": self_by(self.spans, lambda s: s.name),
            "root_s": root_busy(self.spans),
        }
        doc.update(extra or {})
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def dominant(
    spans: Sequence[Span], where: Callable[[Span], bool]
) -> Tuple[str, float]:
    """(span name, share of selected self time) of the heaviest name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if where(span):
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    whole = sum(totals.values())
    if not totals or whole <= 0:
        return "", 0.0
    name = max(totals, key=totals.get)
    return name, totals[name] / whole
