"""Interposer RDL wire planning: crossings, layers and link lengths.

Converts an EIR design (or any set of node-to-node interposer links)
into straight RDL segments, counts layer conflicts, and assigns wires to
redistribution layers by greedy colouring of the conflict graph.  The
layer count is the quantity the paper ties to dual-damascene yielding
cost (section 3.2.3): one layer suffices iff there are no crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.grid import Grid
from . import geometry

TILE_PITCH_MM = 1.5
"""Physical pitch between adjacent tile centres (mm); a ~12 mm die at 8x8."""

MAX_SINGLE_CYCLE_MM = 2 * TILE_PITCH_MM
"""Longest interposer wire that fits in one clock cycle without repeaters
(the paper's 2-hop links meet this, section 4.3)."""


@dataclass(frozen=True)
class RdlPlan:
    """A routed set of interposer wires.

    Attributes
    ----------
    links:
        The ``(src_node, dst_node)`` pairs, in input order.
    segments:
        The straight RDL segment per link.
    crossings:
        Conflicting link-index pairs.
    layer_of:
        Greedy layer assignment per link index (0-based).
    """

    links: Tuple[Tuple[int, int], ...]
    segments: Tuple[geometry.Segment, ...]
    crossings: Tuple[Tuple[int, int], ...]
    layer_of: Tuple[int, ...]

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    @property
    def num_layers(self) -> int:
        return max(self.layer_of, default=-1) + 1 if self.links else 0

    @property
    def total_length_mm(self) -> float:
        return sum(s.length for s in self.segments) * TILE_PITCH_MM

    def needs_repeaters(self) -> bool:
        """Whether any wire exceeds the single-cycle length budget."""
        return any(
            s.length * TILE_PITCH_MM > MAX_SINGLE_CYCLE_MM for s in self.segments
        )


def link_segment(grid: Grid, src: int, dst: int) -> geometry.Segment:
    """The straight RDL wire between two tile centres."""
    return geometry.Segment(
        a=tuple(map(float, grid.coord(src))),
        b=tuple(map(float, grid.coord(dst))),
    )


def plan_links(grid: Grid, links: Sequence[Tuple[int, int]]) -> RdlPlan:
    """Route ``links`` as straight RDL wires and assign layers."""
    segments = tuple(link_segment(grid, src, dst) for src, dst in links)
    crossings = tuple(geometry.crossing_pairs(segments))
    layer_of = _greedy_layers(len(links), crossings)
    return RdlPlan(
        links=tuple(links),
        segments=segments,
        crossings=crossings,
        layer_of=layer_of,
    )


def _greedy_layers(n: int, conflicts: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """Greedy colouring of the conflict graph; colours are RDL layers."""
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for i, j in conflicts:
        adj[i].append(j)
        adj[j].append(i)
    layers = [-1] * n
    for i in range(n):
        used = {layers[j] for j in adj[i] if layers[j] >= 0}
        layer = 0
        while layer in used:
            layer += 1
        layers[i] = layer
    return tuple(layers)


def plan_for_design(design) -> RdlPlan:
    """Route the interposer links of an :class:`~repro.core.eir.EirDesign`."""
    return plan_links(design.grid, design.links())
