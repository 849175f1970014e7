"""Planar geometry for interposer (RDL) wire planning.

Interposer links are modelled as straight segments between tile centres
on the redistribution layer.  Two links that cross need to be placed on
different metal layers, so the crossing count drives RDL layer count and
therefore yielding cost (paper section 3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

Point = Tuple[float, float]


@dataclass(frozen=True)
class Segment:
    """A straight wire segment between two points."""

    a: Point
    b: Point

    @property
    def length(self) -> float:
        return ((self.a[0] - self.b[0]) ** 2 + (self.a[1] - self.b[1]) ** 2) ** 0.5

    def shares_endpoint(self, other: "Segment") -> bool:
        return bool({self.a, self.b} & {other.a, other.b})


def _orient(p: Point, q: Point, r: Point) -> float:
    """Twice the signed area of triangle pqr (>0 counter-clockwise)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Whether collinear point ``q`` lies on segment ``pr``."""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Whether two segments intersect at any point (including endpoints)."""
    p1, q1, p2, q2 = s1.a, s1.b, s2.a, s2.b
    o1 = _orient(p1, q1, p2)
    o2 = _orient(p1, q1, q2)
    o3 = _orient(p2, q2, p1)
    o4 = _orient(p2, q2, q1)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 and o2 and o3 and o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, q2, q1):
        return True
    if o3 == 0 and _on_segment(p2, p1, q2):
        return True
    if o4 == 0 and _on_segment(p2, q1, q2):
        return True
    return False


def segments_cross(s1: Segment, s2: Segment) -> bool:
    """Whether two wires genuinely conflict on one RDL layer.

    Segments that merely share an endpoint (links fanning out of the
    same CB bump) do not conflict.  Everything else that intersects —
    proper crossings, T-junctions, collinear overlap — does.
    """
    if s1.shares_endpoint(s2):
        # Fan-out from a shared bump is fine unless the wires overlap
        # along a stretch (collinear and pointing the same way).
        return _collinear_overlap(s1, s2)
    return segments_intersect(s1, s2)


def _collinear_overlap(s1: Segment, s2: Segment) -> bool:
    """Whether two endpoint-sharing segments overlap beyond the endpoint."""
    shared = ({s1.a, s1.b} & {s2.a, s2.b}).pop()
    other1 = s1.b if s1.a == shared else s1.a
    other2 = s2.b if s2.a == shared else s2.a
    if _orient(shared, other1, other2) != 0:
        return False
    # Collinear: overlap iff both others are on the same side of shared.
    d1 = (other1[0] - shared[0], other1[1] - shared[1])
    d2 = (other2[0] - shared[0], other2[1] - shared[1])
    return d1[0] * d2[0] + d1[1] * d2[1] > 0


def crossing_pairs(segments: Sequence[Segment]) -> List[Tuple[int, int]]:
    """Index pairs of segments that conflict on a single layer."""
    pairs = []
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if segments_cross(segments[i], segments[j]):
                pairs.append((i, j))
    return pairs


def count_crossings(segments: Sequence[Segment]) -> int:
    """Number of conflicting segment pairs."""
    return len(crossing_pairs(segments))
