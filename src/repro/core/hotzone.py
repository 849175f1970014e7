"""Hot zones and the placement penalty scoring policy (paper section 4.2).

The *hot zone* of a cache-bank (CB) node is the eight tiles surrounding
it.  The four directly-connected tiles are *Direct Access Zones* (DAZs):
every packet injected at the CB's local router passes through a DAZ on
its first hop.  The four corner tiles are *Corner Access Zones* (CAZs):
likely second-hop tiles.

A tile that belongs to the hot zones of two different CBs is a *hot-zone
overlap* and marks a spot where injection traffic from two CBs
compounds.  The paper scores a placement by, for every tile, counting
how many of its four direct neighbours are overlaps (``m``) and charging
a penalty of ``1 + 2 + ... + m`` to reflect compounded delay; the
placement score is the sum over all tiles (lower is better).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .grid import Grid


def daz(grid: Grid, cb: int) -> FrozenSet[int]:
    """Direct Access Zone: the mesh neighbours of a CB node."""
    return frozenset(grid.neighbors(cb))


def caz(grid: Grid, cb: int) -> FrozenSet[int]:
    """Corner Access Zone: the diagonal neighbours of a CB node."""
    return frozenset(grid.diagonal_neighbors(cb))


def hot_zone(grid: Grid, cb: int) -> FrozenSet[int]:
    """The full 8-tile hot zone of a CB node."""
    return daz(grid, cb) | caz(grid, cb)


def zone_membership(
    grid: Grid, placement: Sequence[int]
) -> Dict[int, List[Tuple[int, str]]]:
    """Map each tile to the ``(cb, kind)`` hot zones it belongs to.

    ``kind`` is ``"daz"`` or ``"caz"``.  A tile that is itself a CB node
    can still appear if it sits inside another CB's hot zone.
    """
    membership: Dict[int, List[Tuple[int, str]]] = {}
    for cb in placement:
        for tile in daz(grid, cb):
            membership.setdefault(tile, []).append((cb, "daz"))
        for tile in caz(grid, cb):
            membership.setdefault(tile, []).append((cb, "caz"))
    return membership


def overlap_tiles(grid: Grid, placement: Sequence[int]) -> Set[int]:
    """Tiles that belong to the hot zones of at least two distinct CBs."""
    overlaps: Set[int] = set()
    for tile, entries in zone_membership(grid, placement).items():
        owners = {cb for cb, _ in entries}
        if len(owners) >= 2:
            overlaps.add(tile)
    return overlaps


def overlap_kinds(grid: Grid, placement: Sequence[int]) -> Dict[int, Set[str]]:
    """For each overlap tile, the set of overlap kinds it participates in.

    A kind is a sorted pair such as ``"daz-caz"`` or ``"daz-daz"``.  The
    paper notes that N-Queen placements can only produce ``daz-caz``
    overlaps, while knight-move placements (more CBs than N) may also
    produce ``daz-daz`` and ``caz-caz``.
    """
    kinds: Dict[int, Set[str]] = {}
    for tile, entries in zone_membership(grid, placement).items():
        owners: Dict[int, Set[str]] = {}
        for cb, kind in entries:
            owners.setdefault(cb, set()).add(kind)
        if len(owners) < 2:
            continue
        tile_kinds: Set[str] = set()
        cbs = sorted(owners)
        for i, a in enumerate(cbs):
            for b in cbs[i + 1:]:
                for ka in owners[a]:
                    for kb in owners[b]:
                        tile_kinds.add("-".join(sorted((ka, kb))))
        kinds[tile] = tile_kinds
    return kinds


def node_penalty(m: int) -> int:
    """Penalty of a node with ``m`` hot-zone-overlap direct neighbours.

    The paper charges ``sum(1..m) = m (m + 1) / 2`` rather than ``m`` to
    reflect the compounding of delay when multiple overlaps surround one
    tile.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return m * (m + 1) // 2


def placement_penalty(grid: Grid, placement: Sequence[int]) -> int:
    """Total penalty score of a CB placement (lower is better)."""
    return sum(penalty_map(grid, placement).values())


def penalty_map(grid: Grid, placement: Sequence[int]) -> Dict[int, int]:
    """Per-node penalty contributions (useful for visual inspection).

    Only a neighbour of an overlap tile can have ``m > 0``, and adjacency
    is symmetric, so ``m`` is counted from the overlaps outward instead
    of scanning every node's neighbourhood.  Keys are in node order.
    """
    m: Dict[int, int] = {}
    for tile in overlap_tiles(grid, placement):
        for node in grid.neighbors(tile):
            m[node] = m.get(node, 0) + 1
    return {node: node_penalty(m[node]) for node in sorted(m)}

