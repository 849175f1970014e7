"""Unidirectional-loop topologies: ring-router and routerless NoCs.

Two independent baselines ride on the same machinery:

* **Ring router** (Wu et al., "A Ring Router Microarchitecture for
  NoCs") — every node sits on two counter-rotating rings that visit the
  whole chip in serpentine (boustrophedon) order.  A station forwards
  one flit per cycle along its ring; the small per-station side buffer
  is the input VC FIFO.  The serpentine closing link (last node back to
  the first) is a long express wire — on the interposer model it is a
  single-cycle interposer trace, exactly like an EquiNox CB-to-EIR
  link.
* **Routerless NoC** (Lin et al., "Optimizing Routerless
  Network-on-Chip Designs") — a precomputed set of overlapping
  unidirectional loops covers every source/destination pair, so no
  per-hop route computation exists at all: injection *selects a wire*
  (a loop) and the packet rides it to the destination.

Both map onto the simulator as a :class:`~repro.noc.network.Network`
constructed with ``loops=...``: each directed loop hop is its own
point-to-point link (an output-only port upstream, an input-only port
downstream), the mesh ports stay unwired, and the network's
:class:`~repro.noc.routing.LoopTable` is the routing function both tick
engines read, as the mesh route table is for a mesh.

Deadlock freedom — the dateline argument
----------------------------------------

A packet injected at loop position ``p`` travels forward at most
``L - 1`` hops.  The hop *into* the node at loop position ``j`` uses VC
class ``1`` iff ``j < p`` (the packet has crossed the loop's wrap
point), else VC ``0``; the injection link itself always carries VC 0.
Rank the channels ``(VC0, j) -> j`` and ``(VC1, j) -> L + j``: every
buffer dependency strictly increases the rank — VC0 never uses the wrap
edge (that would require ``L`` hops), VC1 is entered exactly once at
the wrap and never returns to VC0 — so the channel dependency graph is
acyclic and the loop cannot deadlock.  Ejection drains unconditionally
(the GPU model pops every delivered packet), closing the argument.
``tests/test_routing.py::TestDeadlockFreedom`` checks it on the graph
built from the table, for every construction here up to 16x16.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.grid import Grid
from .interface import NetworkInterface
from .types import Packet

__all__ = [
    "serpentine_order",
    "ring_loops",
    "routerless_loops",
    "LOOP_SETS",
    "verify_loop_cover",
    "LoopInterface",
]


# ----------------------------------------------------------------------
# Loop constructions
# ----------------------------------------------------------------------
def serpentine_order(grid: Grid) -> List[int]:
    """All nodes in boustrophedon order (row 0 L-to-R, row 1 R-to-L...)."""
    order: List[int] = []
    for y in range(grid.height):
        xs = range(grid.width) if y % 2 == 0 else range(grid.width - 1, -1, -1)
        order.extend(grid.node(x, y) for x in xs)
    return order


def ring_loops(grid: Grid) -> List[Tuple[int, ...]]:
    """Two counter-rotating serpentine rings covering every node.

    Any (src, dst) pair lies on both rings, so lane selection reduces
    to picking the rotation with the shorter forward distance.
    """
    forward = serpentine_order(grid)
    return [tuple(forward), tuple(reversed(forward))]


def _perimeter(
    grid: Grid, x0: int, y0: int, x1: int, y1: int, clockwise: bool
) -> Tuple[int, ...]:
    """Boundary walk of the rectangle ``[x0..x1] x [y0..y1]`` (>= 2x2)."""
    if x1 <= x0 or y1 <= y0:
        raise ValueError("loop rectangle must span at least 2x2 nodes")
    walk: List[Tuple[int, int]] = []
    walk.extend((x, y0) for x in range(x0, x1))  # top edge, left to right
    walk.extend((x1, y) for y in range(y0, y1))  # right edge, downward
    walk.extend((x, y1) for x in range(x1, x0, -1))  # bottom, right to left
    walk.extend((x0, y) for y in range(y1, y0, -1))  # left edge, upward
    if not clockwise:
        walk.reverse()
    return tuple(grid.node(x, y) for x, y in walk)


def routerless_loops(grid: Grid) -> List[Tuple[int, ...]]:
    """Layered slab-rectangle loop set covering every (src, dst) pair.

    Layer ``k`` spans the rectangle ``R_k = [k..W-1-k] x [k..H-1-k]``;
    while it is at least 2x2 we emit the perimeters of every *slab*
    anchored at one of its four edges (left slabs ``[k..a] x R_k``,
    right, top and bottom analogues), deduplicated, with alternating
    rotation to balance link load.

    Coverage: for a pair (u, v), let ``k`` be the smaller of their ring
    depths, so both lie inside ``R_k`` and (say) u on its border.  If u
    is on the left/right column, the horizontal slab whose moving edge
    passes through v's row contains both; if u is on the top/bottom
    row, the vertical slab through v's column does.  The property test
    in ``tests/test_schemes.py`` checks this exhaustively per mesh.
    """
    width, height = grid.width, grid.height
    loops: List[Tuple[int, ...]] = []
    seen_rects: set = set()

    def emit(rect: Tuple[int, int, int, int]) -> None:
        if rect in seen_rects:
            return
        seen_rects.add(rect)
        loops.append(_perimeter(grid, *rect, clockwise=len(loops) % 2 == 0))

    k = 0
    while (width - 1 - k) - k >= 1 and (height - 1 - k) - k >= 1:
        x0, x1 = k, width - 1 - k
        y0, y1 = k, height - 1 - k
        for a in range(x0 + 1, x1 + 1):  # slabs growing from the left edge
            emit((x0, y0, a, y1))
        for a in range(x0, x1):  # slabs growing from the right edge
            emit((a, y0, x1, y1))
        for b in range(y0 + 1, y1 + 1):  # slabs from the top edge
            emit((x0, y0, x1, b))
        for b in range(y0, y1):  # slabs from the bottom edge
            emit((x0, b, x1, y1))
        k += 1
    if not loops:
        raise ValueError(
            f"routerless loops need a mesh of at least 2x2 nodes, "
            f"got {width}x{height}"
        )
    return loops


LOOP_SETS = {"ring": ring_loops, "routerless": routerless_loops}
"""The loop construction of each ``SchemeConfig.topology`` but ``mesh``."""


def verify_loop_cover(grid: Grid, loops: Sequence[Sequence[int]]) -> None:
    """Raise if some (src, dst) pair is on no common loop (test support)."""
    membership: List[set] = [set() for _ in range(grid.size)]
    for lane, loop in enumerate(loops):
        for node in loop:
            membership[node].add(lane)
    for src in range(grid.size):
        for dst in range(grid.size):
            if src != dst and membership[src].isdisjoint(membership[dst]):
                raise AssertionError(
                    f"no loop covers pair {src}->{dst} "
                    f"on {grid.width}x{grid.height}"
                )


# ----------------------------------------------------------------------
# Injection side
# ----------------------------------------------------------------------
class LoopInterface(NetworkInterface):
    """NI for loop topologies: wire selection happens at injection.

    One local buffer, exactly like the base NI; the only addition is
    stamping ``packet.lane`` (a minimal lane of the network's
    :class:`~repro.noc.routing.LoopTable`, rotating over equal choices)
    before the packet enters the buffer.  Downstream, every router and
    the SoA read the lane's forward port and dateline VC from the table.
    """

    __slots__ = ()

    def _load(self, buf, packet: Packet, cycle: int) -> None:
        packet.lane = self.network.loop_table.select_lane(
            self.node, packet.dst
        )
        super()._load(buf, packet, cycle)
