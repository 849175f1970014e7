"""The four-metric evaluation function guiding MCTS (paper section 4.3).

For a complete EIR design the function combines, after normalisation:

1. **Max EIR traffic load** — assuming each PE receives a similar share
   of reply traffic, distribute each CB's traffic over its injection
   points per the buffer-selection policy and take the maximum load of
   any injection point.  Minimising this balances the EIRs and avoids
   hotspots.
2. **Average hop count** — latency proxy: one cycle to enter the chosen
   injection router (local or via one-cycle interposer hop) plus mesh
   hops from there to the destination.
3. **Number of intersection points** in the RDL wire plan (layer cost).
4. **Total interposer link length** (repeater/active-interposer risk).

All metrics are cheap to compute, which is what lets MCTS call this in
every backpropagation step instead of running full-system simulation.
Lower scores are better; :func:`reward` maps scores to ``(0, 1]`` for
UCB backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..physical import geometry, interposer
from .eir import EirDesign, EirGroup, shortest_path_eirs
from .grid import Grid

DEFAULT_WEIGHTS: Mapping[str, float] = {
    "max_load": 1.0,
    "avg_hops": 1.0,
    "crossings": 2.0,
    "link_length": 1.0,
}


@dataclass(frozen=True)
class EvalResult:
    """Raw and normalised metrics plus the combined score (lower=better)."""

    raw: Dict[str, float]
    normalized: Dict[str, float]
    score: float


def injection_loads(design: EirDesign) -> Dict[int, float]:
    """Traffic load per injection point, in PE-destination shares.

    Every PE destination contributes one unit of traffic per CB; the
    unit is split evenly over the shortest-path injection points the
    buffer selector would rotate through (the round-robin of Buffer
    Selection 1), or assigned to the local router when no EIR is on a
    shortest path.
    """
    grid = design.grid
    cb_set = set(design.placement)
    pes = [n for n in grid.nodes() if n not in cb_set]
    loads: Dict[int, float] = {}
    for cb in design.placement:
        for inj in design.injection_points(cb):
            loads.setdefault(inj, 0.0)
        for dst in pes:
            choices = shortest_path_eirs(grid, design, cb, dst)
            if not choices:
                choices = [cb]
            share = 1.0 / len(choices)
            for inj in choices:
                loads[inj] += share
    return loads


def average_hops(design: EirDesign) -> float:
    """Mean effective hop count over all (CB, PE) pairs.

    Entering an injection router costs one hop (the local link or the
    single-cycle interposer link), then mesh hops to the destination.
    Interposer links thus shortcut the first ``distance(cb, eir)`` mesh
    hops into one.
    """
    grid = design.grid
    cb_set = set(design.placement)
    pes = [n for n in grid.nodes() if n not in cb_set]
    total = 0.0
    pairs = 0
    for cb in design.placement:
        for dst in pes:
            choices = shortest_path_eirs(grid, design, cb, dst)
            if choices:
                hops = sum(1 + grid.hops(e, dst) for e in choices) / len(choices)
            else:
                hops = 1 + grid.hops(cb, dst) - 1  # local injection
            total += hops
            pairs += 1
    return total / pairs if pairs else 0.0


def _baseline_avg_hops(grid: Grid, placement: Sequence[int]) -> float:
    """Average hops with no EIRs at all (normalisation reference)."""
    cb_set = set(placement)
    pes = [n for n in grid.nodes() if n not in cb_set]
    total = sum(grid.hops(cb, dst) for cb in placement for dst in pes)
    return total / (len(placement) * len(pes))


def _finalize(
    grid: Grid,
    placement: Sequence[int],
    num_links: int,
    raw: Dict[str, float],
    baseline_hops: float,
    weights: Optional[Mapping[str, float]],
) -> EvalResult:
    """Normalise raw metrics and combine them into the scalar score."""
    weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
    num_pes = grid.size - len(placement)
    max_links = 4 * len(placement)
    normalized = {
        # A design with no EIRs funnels all num_pes shares through one
        # router, so num_pes is the worst case.
        "max_load": raw["max_load"] / num_pes if num_pes else 0.0,
        "avg_hops": raw["avg_hops"] / baseline_hops,
        # Each crossing forces another RDL layer somewhere; normalising
        # per link keeps a handful of crossings clearly visible to the
        # search (a combinatorial worst case would drown them out).
        "crossings": raw["crossings"] / num_links if num_links else 0.0,
        # Worst case: the maximum number of links, all at max distance.
        "link_length": (
            raw["link_length"] / (max_links * 3) if max_links else 0.0
        ),
    }
    score = sum(weights[name] * normalized[name] for name in normalized)
    return EvalResult(raw=raw, normalized=normalized, score=score)


def evaluate(
    design: EirDesign,
    weights: Optional[Mapping[str, float]] = None,
) -> EvalResult:
    """Evaluate a complete EIR design; lower scores are better."""
    grid = design.grid
    plan = interposer.plan_for_design(design)

    loads = injection_loads(design)
    raw = {
        "max_load": max(loads.values()) if loads else 0.0,
        "avg_hops": average_hops(design),
        "crossings": float(plan.num_crossings),
        "link_length": float(design.total_link_length()),
    }
    return _finalize(
        grid, design.placement, len(design.links()), raw,
        _baseline_avg_hops(grid, design.placement), weights,
    )


class _Fragment(NamedTuple):
    """One CB's exact contribution to every metric under one EIR group.

    ``points`` are the CB's injection points (local router first).  An
    injection point belongs to exactly one CB, so its load in
    :func:`injection_loads` is summed from this CB's shares alone and in
    this CB's order: ``max_load``, the largest of them, is exact.
    ``hops`` stays a per-destination sequence (PE order) because
    :func:`average_hops` adds every CB's values into one running total,
    and replaying them keeps that float-addition order.  ``link_length``
    is the integer hop length of the CB's links, ``segments`` their RDL
    wires, ``crossings`` the conflicts among those wires and ``box`` the
    ``(x0, x1, y0, y1)`` bounds of all of them.  ``index`` names the
    fragment in the evaluator's pairwise crossing memo.
    """

    index: int
    points: Tuple[int, ...]
    max_load: float
    hops: List[float]
    link_length: int
    segments: Tuple[geometry.Segment, ...]
    crossings: int
    box: Tuple[int, int, int, int]


class IncrementalEvaluator:
    """Memoizing evaluator that reuses per-CB fragments across designs.

    A CB's contribution to :func:`injection_loads`,
    :func:`average_hops` and the link length depends only on its *own*
    EIR group (:func:`~repro.core.eir.shortest_path_eirs` never consults
    other groups), and a design's crossing count is the sum of its
    groups' internal conflicts plus one count per pair of groups.
    Successive MCTS rollouts — which typically differ from an
    already-seen design in a single CB's group — therefore recompute one
    fragment and a few group pairs instead of the whole O(CBs x PEs)
    traffic model and the O(links^2) wire plan.  Fragments are keyed by
    the canonical ``(cb, group.eirs)`` tuple, pairs by the two
    fragments' indices in placement order; the hop values are replayed
    in placement order, preserving the exact float-addition sequence, so
    results are bit-identical to :func:`evaluate` and the search commits
    the same design either way.  Both memos live as long as the
    evaluator, i.e. one search.
    """

    def __init__(
        self,
        grid: Grid,
        placement: Sequence[int],
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.grid = grid
        self.placement = tuple(placement)
        self.weights = weights
        self._cbs = frozenset(self.placement)
        self._pe_xy = [
            grid.coord(n) for n in grid.nodes() if n not in self._cbs
        ]
        self._baseline_hops = _baseline_avg_hops(grid, self.placement)
        self._fragments: Dict[Tuple[int, tuple], _Fragment] = {}
        self._pair_crossings: Dict[Tuple[int, int], int] = {}

    def _fragment(self, group: EirGroup) -> _Fragment:
        key = (group.cb, group.eirs)
        frag = self._fragments.get(key)
        if frag is None:
            frag = self._compute_fragment(group, len(self._fragments))
            self._fragments[key] = frag
        return frag

    def _compute_fragment(self, group: EirGroup, index: int) -> _Fragment:
        grid = self.grid
        cb = group.cb
        nodes = group.nodes
        points = (cb,) + nodes
        cx, cy = grid.coord(cb)
        eir_xy = [grid.coord(node) for node in nodes]
        to_eir = [abs(cx - ex) + abs(cy - ey) for ex, ey in eir_xy]
        loads = dict.fromkeys(points, 0.0)
        hops_list: List[float] = []
        # grid.hops inlined on coordinates (integers, so exact); the float
        # operations mirror injection_loads and average_hops one for one.
        for x, y in self._pe_xy:
            base = abs(cx - x) + abs(cy - y)
            far = [abs(ex - x) + abs(ey - y) for ex, ey in eir_xy]
            choices = [
                k for k, near in enumerate(to_eir) if near + far[k] == base
            ]
            if choices:
                hops = sum(1 + far[k] for k in choices) / len(choices)
                loaded = [nodes[k] for k in choices]
            else:
                hops = 1 + base - 1  # local injection
                loaded = [cb]
            hops_list.append(hops)
            share = 1.0 / len(loaded)
            for inj in loaded:
                loads[inj] += share
        segments = tuple(
            interposer.link_segment(grid, cb, node) for node in nodes
        )
        xs = [cx] + [ex for ex, _ in eir_xy]
        ys = [cy] + [ey for _, ey in eir_xy]
        return _Fragment(
            index, points, max(loads.values()), hops_list, sum(to_eir),
            segments, geometry.count_crossings(segments),
            (min(xs), max(xs), min(ys), max(ys)),
        )

    def _crossings_between(self, a: _Fragment, b: _Fragment) -> int:
        key = (a.index, b.index)
        count = self._pair_crossings.get(key)
        if count is None:
            # Wires inside disjoint boxes cannot touch.
            ax0, ax1, ay0, ay1 = a.box
            bx0, bx1, by0, by1 = b.box
            disjoint = ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0
            count = 0 if disjoint else sum(
                1 for s in a.segments for t in b.segments
                if geometry.segments_cross(s, t)
            )
            self._pair_crossings[key] = count
        return count

    def evaluate(self, groups: Sequence[EirGroup]) -> EvalResult:
        """Evaluate a complete design given as one group per CB."""
        # EirDesign's checks, which the memoised loads rely on.
        by_cb = {g.cb: g for g in groups}
        if len(by_cb) != len(groups) or by_cb.keys() != self._cbs:
            raise ValueError("groups must cover exactly the placed CBs")
        frags = [self._fragment(by_cb[cb]) for cb in self.placement]
        points = [p for frag in frags for p in frag.points]
        if len(set(points)) != len(points):
            raise ValueError("an EIR may not be shared or sit on a CB")
        total = 0.0
        pairs = 0
        crossings = 0
        for i, frag in enumerate(frags):
            for hops in frag.hops:
                total += hops
            pairs += len(frag.hops)
            crossings += frag.crossings
            for other in frags[i + 1:]:
                crossings += self._crossings_between(frag, other)
        raw = {
            "max_load": max((f.max_load for f in frags), default=0.0),
            "avg_hops": total / pairs if pairs else 0.0,
            "crossings": float(crossings),
            "link_length": float(sum(f.link_length for f in frags)),
        }
        return _finalize(
            self.grid, self.placement, len(points) - len(frags), raw,
            self._baseline_hops, self.weights,
        )


def reward(result: EvalResult) -> float:
    """Map an evaluation score to a UCB reward in ``(0, 1]``."""
    return 1.0 / (1.0 + result.score)
