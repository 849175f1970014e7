"""Equivalent Injection Router (EIR) groups and their design space.

An EIR group is the set of routers a cache bank may inject through in
addition to its local router (paper section 3).  EquiNox constrains the
group per the paper's two simplifications (section 4.3):

* at most one EIR per axis direction from the CB (two EIRs in the same
  direction would contend with each other), and
* EIRs within a few hops of the CB (short interposer links, fewer
  crossings).

Candidates at distance 1 are excluded because they sit in the CB's own
Direct Access Zone — injecting there adds traffic exactly where the hot
zone already is.  Candidates inside *any* CB's hot zone, or on a CB
node, are excluded for the same reason (section 3.2.4).  EIRs are never
shared between CBs (section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Dict, FrozenSet, List, Sequence, Tuple

from . import hotzone
from .grid import AXIS_DIRECTIONS, Coord, Grid

MIN_EIR_DISTANCE = 2
MAX_EIR_DISTANCE = 3


@dataclass(frozen=True)
class EirGroup:
    """The EIRs selected for one cache bank.

    ``eirs`` maps an axis direction to the node id of the EIR placed on
    that axis (directions without an EIR are absent).
    """

    cb: int
    eirs: Tuple[Tuple[Coord, int], ...]

    @cached_property
    def nodes(self) -> Tuple[int, ...]:
        """EIR node ids (excluding the CB's local router)."""
        return tuple(node for _, node in self.eirs)

    def __len__(self) -> int:
        return len(self.eirs)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # The hash dataclass would generate, computed once: groups key
        # every memo of the search.
        return hash((self.cb, self.eirs))


def make_group(cb: int, eirs: Dict[Coord, int]) -> EirGroup:
    """Build an :class:`EirGroup` from a direction->node mapping."""
    return EirGroup(cb=cb, eirs=tuple(sorted(eirs.items())))


def candidate_positions(
    grid: Grid,
    placement: Sequence[int],
    cb: int,
) -> Dict[Coord, List[int]]:
    """Per-direction EIR candidates for ``cb`` under ``placement``.

    Returns a mapping from each axis direction to the list of node ids
    that may host an EIR in that direction, ordered by distance.  A
    candidate lies :data:`MIN_EIR_DISTANCE` to :data:`MAX_EIR_DISTANCE`
    hops from ``cb``.
    """
    if cb not in placement:
        raise ValueError(f"node {cb} is not a CB in the given placement")
    # Forbid CB nodes themselves and every CB's Direct Access Zone: DAZ
    # tiles carry every first-hop flit of their CB and must not take on
    # extra injection load (section 3.2.4).  Corner tiles (CAZ) remain
    # eligible — with N-Queen placement a 2-hop on-axis candidate of one
    # CB is often another CB's CAZ, and the paper's Figure-7 design
    # includes such nodes.
    forbidden = set(placement)
    for other in placement:
        forbidden |= hotzone.daz(grid, other)
    x, y = grid.coord(cb)
    candidates: Dict[Coord, List[int]] = {d: [] for d in AXIS_DIRECTIONS}
    for dx in range(-MAX_EIR_DISTANCE, MAX_EIR_DISTANCE + 1):
        for dy in range(-MAX_EIR_DISTANCE, MAX_EIR_DISTANCE + 1):
            dist = abs(dx) + abs(dy)
            if not MIN_EIR_DISTANCE <= dist <= MAX_EIR_DISTANCE:
                continue
            if not grid.contains(x + dx, y + dy):
                continue
            node = grid.node(x + dx, y + dy)
            if node in forbidden:
                continue
            # Sector assignment by dominant displacement; diagonal ties
            # go to the x sector so each node has exactly one direction.
            if abs(dx) >= abs(dy) and dx != 0:
                direction = (1, 0) if dx > 0 else (-1, 0)
            else:
                direction = (0, 1) if dy > 0 else (0, -1)
            candidates[direction].append(node)
    for direction in AXIS_DIRECTIONS:
        # Order near-to-far, then by node id, for determinism.
        candidates[direction].sort(key=lambda n: (grid.hops(cb, n), n))
    return candidates


def enumerate_groups(
    cb: int,
    per_dir: Dict[Coord, List[int]],
    taken: FrozenSet[int] = frozenset(),
    require_full: bool = False,
) -> List[EirGroup]:
    """All legal EIR groups for ``cb``, skipping nodes already ``taken``.

    ``per_dir`` is ``cb``'s :func:`candidate_positions`.
    ``require_full`` keeps only groups with an EIR in every direction
    that has at least one candidate (used to bias the search toward
    high-injection-bandwidth designs).
    """
    # Directions in order, each left empty (None) first where allowed:
    # the order a depth-first walk over the directions gives.  No node
    # is a candidate in two directions, so no group repeats a node.
    choices = []
    for nodes in per_dir.values():
        options = [n for n in nodes if n not in taken]
        choices.append(options if options and require_full else [None] + options)
    return [
        make_group(cb, {d: n for d, n in zip(per_dir, combo) if n is not None})
        for combo in product(*choices)
    ]


@dataclass(frozen=True)
class EirDesign:
    """A complete EIR selection: one group per cache bank."""

    grid: Grid
    placement: Tuple[int, ...]
    groups: Tuple[EirGroup, ...]

    def __post_init__(self) -> None:
        cbs = [g.cb for g in self.groups]
        if sorted(cbs) != sorted(self.placement):
            raise ValueError("groups must cover exactly the placed CBs")
        all_eirs = [n for g in self.groups for n in g.nodes]
        if len(all_eirs) != len(set(all_eirs)):
            raise ValueError("an EIR may not be shared between CBs")
        overlap = set(all_eirs) & set(self.placement)
        if overlap:
            raise ValueError(f"nodes {sorted(overlap)} are both CB and EIR")

    @property
    def group_by_cb(self) -> Dict[int, EirGroup]:
        return {g.cb: g for g in self.groups}

    @property
    def eir_nodes(self) -> FrozenSet[int]:
        return frozenset(n for g in self.groups for n in g.nodes)

    def links(self) -> List[Tuple[int, int]]:
        """The interposer links as ``(cb, eir)`` node pairs."""
        return [(g.cb, node) for g in self.groups for node in g.nodes]

    def total_link_length(self) -> int:
        """Sum of link lengths in mesh hops."""
        return sum(self.grid.hops(cb, eir) for cb, eir in self.links())

    def injection_points(self, cb: int) -> Tuple[int, ...]:
        """All routers ``cb`` may inject through (local router first)."""
        return (cb,) + self.group_by_cb[cb].nodes


def shortest_path_eirs(grid: Grid, design: EirDesign, cb: int, dst: int) -> List[int]:
    """EIRs of ``cb`` that lie on a minimal path from ``cb`` to ``dst``.

    An EIR ``e`` qualifies when ``hops(cb, e) + hops(e, dst) ==
    hops(cb, dst)`` — injecting there causes no detour.  The local
    router always qualifies and is *not* included here.
    """
    if cb == dst:
        raise ValueError("a CB does not send packets to itself")
    base = grid.hops(cb, dst)
    group = design.group_by_cb[cb]
    return [
        node
        for node in group.nodes
        if grid.hops(cb, node) + grid.hops(node, dst) == base
    ]

