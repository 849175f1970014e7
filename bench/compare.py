"""Judge two result files against each metric's own bound.

One row per (workload, metric) with both values and the ratio B/A
(base = A).  Verdicts:

``ok``          B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the benchmark cannot tell at this bound: a side's own
                in-run spread exceeds it or, for two runs of the same
                code (``--aa``), the two runs differ by more than it
``differs``     a simulated (exact) value changed; fatal between two runs
                of the same code, reported only between two commits (an
                intentional model fix must stay landable)
``-``           unbounded (per-layer) metric: shown, never judged

Simulated counts in each outcome's ``sim`` block are compared exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import catalog

Row = Dict[str, object]


def worsening(metric: catalog.Metric, a: float, b: float) -> float:
    """How much worse B is than A, in the bound's terms (negative = better)."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    if metric.bound_kind == "abs":
        return delta
    return delta / abs(a) if a else (0.0 if not delta else float("inf"))


def verdict(
    metric: catalog.Metric, a: Dict, b: Dict, same_code: bool
) -> Tuple[str, Optional[float]]:
    va, vb = a["value"], b["value"]
    if metric.exact and va != vb and (same_code or metric.bound is None):
        return "differs", None
    if metric.bound is None:
        return "-", None
    worse = worsening(metric, va, vb)
    if metric.bound_kind == "rel":
        noisy = max(a.get("spread") or 0.0, b.get("spread") or 0.0)
        if noisy > metric.bound:
            return "unresolved", worse
    if same_code and abs(worse) > metric.bound:
        return "unresolved", worse
    if worse > metric.bound:
        return "worse", worse
    return "ok", worse


def compare(doc_a: Dict, doc_b: Dict, same_code: bool) -> Tuple[List[Row], bool]:
    """All rows plus whether the two files agree."""
    rows: List[Row] = []
    agree = True
    for name, runs_a in doc_a["workloads"].items():
        runs_b = doc_b["workloads"].get(name)
        if runs_b is None:
            rows.append({"workload": name, "metric": "*", "verdict": "missing"})
            agree = False
            continue
        for kind, out_a in runs_a.items():
            out_b = runs_b.get(kind)
            if out_b is None:
                continue
            for metric_name, a in out_a["metrics"].items():
                b = out_b["metrics"].get(metric_name)
                if b is None:
                    continue
                metric = catalog.BY_NAME[metric_name]
                what, worse = verdict(metric, a, b, same_code)
                rows.append({
                    "workload": name, "metric": metric_name, "unit": metric.unit,
                    "a": a["value"], "b": b["value"],
                    "ratio": b["value"] / a["value"] if a["value"] else None,
                    "bound": metric.bound, "bound_kind": metric.bound_kind,
                    "worse_by": worse, "verdict": what,
                })
                agree &= what in ("ok", "-") or (what == "differs" and not same_code)
            same_seed = out_a["seed"] == out_b["seed"]
            if same_seed and same_code and out_a["sim"] != out_b["sim"]:
                rows.append({
                    "workload": name, "metric": f"sim[{kind}]",
                    "a": out_a["sim"], "b": out_b["sim"], "verdict": "differs",
                })
                agree = False
    return rows, agree


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "-" if value is None else str(value)


def render(rows: List[Row]) -> str:
    head = ("workload", "metric", "A", "B", "B/A", "bound", "verdict")
    table = [head]
    for r in rows:
        bound = r.get("bound")
        if bound is not None:
            bound = f"{bound:g}" + ("" if r["bound_kind"] == "abs" else "x")
        table.append((
            r["workload"], r["metric"], _fmt(r.get("a")), _fmt(r.get("b")),
            _fmt(r.get("ratio")), _fmt(bound), r["verdict"],
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(head))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    )
