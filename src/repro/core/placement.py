"""Cache-bank placement strategies (paper sections 4.2 and 6.8).

The placements compared in the paper's Figure 4 are provided (Top,
Side, Diagonal, Diamond) together with the proposed scored N-Queen
placement, and the knight-move placement for the "more CBs than N" case
discussed in section 6.8.

A placement is a tuple of node ids on a :class:`~repro.core.grid.Grid`,
in no particular order, with one entry per cache bank.  Each CB is
assumed to pair with one memory controller and one HBM stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from . import hotzone, nqueen
from .grid import Grid

Placement = Tuple[int, ...]


@dataclass(frozen=True)
class PlacementResult:
    """A named placement plus its hot-zone penalty score."""

    name: str
    nodes: Placement
    penalty: int

    def __len__(self) -> int:
        return len(self.nodes)


def _score(grid: Grid, name: str, nodes: Sequence[int]) -> PlacementResult:
    return PlacementResult(
        name=name,
        nodes=tuple(nodes),
        penalty=hotzone.placement_penalty(grid, tuple(nodes)),
    )


def _spread(count: int, extent: int) -> List[int]:
    """``count`` indices spread as evenly as possible across ``extent``."""
    if count > extent:
        raise ValueError("cannot spread more items than positions")
    return [round(i * (extent - 1) / max(count - 1, 1)) for i in range(count)]


def top(grid: Grid, num_cbs: int = 8) -> PlacementResult:
    """All CBs on the top row (classic "Top" placement)."""
    xs = _spread(num_cbs, grid.width)
    return _score(grid, "top", [grid.node(x, 0) for x in xs])


def side(grid: Grid, num_cbs: int = 8) -> PlacementResult:
    """All CBs along the left column (classic "Side" placement).

    Stacking the CBs in one column makes the first few columns carry
    every reply flit — the severe congestion the paper's Figure 4 heat
    map shows for this placement.
    """
    ys = _spread(num_cbs, grid.height)
    return _score(grid, "side", [grid.node(0, y) for y in ys])


def diagonal(grid: Grid, num_cbs: int = 8) -> PlacementResult:
    """CBs along the main diagonal (distinct rows and columns)."""
    if grid.width != grid.height:
        raise ValueError("diagonal placement requires a square grid")
    idx = _spread(num_cbs, grid.width)
    return _score(grid, "diagonal", [grid.node(i, i) for i in idx])


def diamond(grid: Grid, num_cbs: int = 8) -> PlacementResult:
    """Diamond placement: two anti-diagonal runs forming a rotated square.

    Rows are distinct and columns are distinct (the property the paper
    relies on when contrasting Diamond with Top/Side), but adjacent CBs
    are diagonal neighbours — the weakness that motivates N-Queen.
    For 8 CBs on 8x8 this yields
    ``(0,3),(1,2),(2,1),(3,0),(4,7),(5,6),(6,5),(7,4)``.
    """
    if grid.width != grid.height:
        raise ValueError("diamond placement requires a square grid")
    n = grid.width
    rows = _spread(num_cbs, n)
    half = num_cbs // 2
    # First half descends toward column 0; second half descends from the
    # right edge, mirroring the first half.
    nodes = []
    for i, row in enumerate(rows):
        if i < half:
            col = rows[half - 1] - row if half > 0 else 0
            col = max(col, 0)
        else:
            col = (n - 1) - (row - rows[half]) if num_cbs > half else n - 1
            col = min(max(col, 0), n - 1)
        nodes.append(grid.node(col, row))
    return _score(grid, "diamond", nodes)


def nqueen_best(grid: Grid, num_cbs: int = 8) -> PlacementResult:
    """The lowest-penalty N-Queen placement (the paper's choice).

    For square grids with ``num_cbs == N`` every solution (or a sampled
    subset for large N) is scored with the hot-zone penalty and the best
    is returned.  When ``num_cbs < N`` redundant queens are pruned per
    paper section 6.8 and the best pruned subset is returned.
    """
    if grid.width != grid.height:
        raise ValueError("N-Queen placement requires a square grid")
    n = grid.width
    if num_cbs > n:
        raise ValueError("use knight_move() when num_cbs exceeds N")
    solutions = nqueen.candidate_solutions(n)
    best: PlacementResult | None = None
    for cols in solutions:
        if num_cbs == n:
            candidates: List[Tuple[Tuple[int, int], ...]] = [
                tuple((c, r) for r, c in enumerate(cols))
            ]
        else:
            candidates = list(nqueen.prune_to_k(cols, num_cbs,
                                                max_subsets=32))
        for coords in candidates:
            nodes = tuple(grid.node(x, y) for x, y in coords)
            result = _score(grid, "nqueen", nodes)
            if best is None or (result.penalty, result.nodes) < (
                best.penalty,
                best.nodes,
            ):
                best = result
    if best is None:
        raise ValueError(f"no N-Queen placement exists on a {n}x{n} grid")
    return best


def knight_move(grid: Grid, num_cbs: int) -> PlacementResult:
    """Knight-move placement for more CBs than N (paper section 6.8).

    CBs are laid out following chess knight displacements ``(+1, +2)``
    (wrapping within the grid), which the paper states minimises the
    number of same-row/column/diagonal CB pairs when ``num_cbs > N``.
    """
    if num_cbs <= 0:
        raise ValueError("num_cbs must be positive")
    if num_cbs > grid.size:
        raise ValueError("more CBs than tiles")
    nodes: List[int] = []
    seen = set()
    x, y = 0, 0
    steps = 0
    while len(nodes) < num_cbs and steps < 4 * grid.size:
        steps += 1
        node = grid.node(x % grid.width, y % grid.height)
        if node not in seen:
            seen.add(node)
            nodes.append(node)
            x, y = x + 1, y + 2  # knight displacement
        else:
            x += 1  # completed a knight cycle; shift the phase
    for node in grid.nodes():  # safety fill for degenerate grids
        if len(nodes) >= num_cbs:
            break
        if node not in seen:
            seen.add(node)
            nodes.append(node)
    return _score(grid, "knight", nodes)


STRATEGIES: Dict[str, Callable[..., PlacementResult]] = {
    "top": top,
    "side": side,
    "diagonal": diagonal,
    "diamond": diamond,
    "nqueen": nqueen_best,
}
"""Placements compared in the paper's Figure 4, by name."""


def by_name(name: str, grid: Grid, num_cbs: int = 8) -> PlacementResult:
    """Look up and build a placement strategy by its Figure-4 name."""
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return strategy(grid, num_cbs)
