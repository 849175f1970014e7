"""Mesh-grid coordinate helpers shared by placement, EIR selection and the NoC.

A network of ``width x height`` tiles is addressed two ways:

* by coordinate ``(x, y)`` with ``0 <= x < width`` (column) and
  ``0 <= y < height`` (row), and
* by node id ``node = y * width + x``.

All modules in :mod:`repro` use these helpers so the two addressings can
never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

Coord = Tuple[int, int]

_NEIGHBOR_STEPS: Tuple[Coord, ...] = ((0, -1), (0, 1), (1, 0), (-1, 0))


# Per-shape lookup tables, held once per process and shape outside
# :class:`Grid`, so a grid's fields, equality, hash and pickles stay its
# two integers.
@lru_cache(maxsize=None)
def _coords(width: int, height: int) -> Tuple[Coord, ...]:
    """Every node's ``(x, y)``, by node id."""
    return tuple((n % width, n // width) for n in range(width * height))


@lru_cache(maxsize=None)
def _neighbors(width: int, height: int) -> Tuple[Tuple[int, ...], ...]:
    """Every node's mesh neighbours (N, S, E, W order), by node id."""
    return tuple(
        tuple(
            (y + dy) * width + x + dx
            for dx, dy in _NEIGHBOR_STEPS
            if 0 <= x + dx < width and 0 <= y + dy < height
        )
        for x, y in _coords(width, height)
    )


@dataclass(frozen=True)
class Grid:
    """A rectangular tile grid.

    Parameters
    ----------
    width:
        Number of columns.
    height:
        Number of rows.  Defaults to ``width`` (square grid) when zero.
    """

    width: int
    height: int = 0

    def __post_init__(self) -> None:
        if self.height == 0:
            object.__setattr__(self, "height", self.width)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of tiles."""
        return self.width * self.height

    def node(self, x: int, y: int) -> int:
        """Return the node id for coordinate ``(x, y)``."""
        if not self.contains(x, y):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} grid")
        return y * self.width + x

    def coord(self, node: int) -> Coord:
        """Return the ``(x, y)`` coordinate of ``node``."""
        coords = _coords(self.width, self.height)
        if not 0 <= node < len(coords):
            raise self._outside(node)
        return coords[node]

    def _outside(self, node: int) -> ValueError:
        return ValueError(f"node {node} outside {self.width}x{self.height} grid")

    def contains(self, x: int, y: int) -> bool:
        """Whether ``(x, y)`` lies inside the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    def nodes(self) -> Iterator[int]:
        """Iterate all node ids in row-major order."""
        return iter(range(self.size))

    def coords(self) -> Iterator[Coord]:
        """Iterate all coordinates in row-major order."""
        return ((n % self.width, n // self.width) for n in range(self.size))

    # ------------------------------------------------------------------
    # Distances and neighbourhoods
    # ------------------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Manhattan (minimal mesh hop) distance between two nodes."""
        coords = _coords(self.width, self.height)
        size = len(coords)
        if not (0 <= a < size and 0 <= b < size):
            raise self._outside(b if 0 <= a < size else a)
        (ax, ay), (bx, by) = coords[a], coords[b]
        return abs(ax - bx) + abs(ay - by)

    def neighbors(self, node: int) -> List[int]:
        """The up-to-four mesh neighbours of ``node`` (N, S, E, W order)."""
        table = _neighbors(self.width, self.height)
        if not 0 <= node < len(table):
            raise self._outside(node)
        return list(table[node])

    def diagonal_neighbors(self, node: int) -> List[int]:
        """The up-to-four diagonal neighbours of ``node``."""
        x, y = self.coord(node)
        out = []
        for dx, dy in ((-1, -1), (1, -1), (-1, 1), (1, 1)):
            if self.contains(x + dx, y + dy):
                out.append(self.node(x + dx, y + dy))
        return out

    def ring(self, node: int, radius: int) -> List[int]:
        """All nodes at exactly ``radius`` Manhattan hops from ``node``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        x, y = self.coord(node)
        out = []
        for dx in range(-radius, radius + 1):
            dy = radius - abs(dx)
            for sy in ({dy, -dy}):
                if self.contains(x + dx, y + sy):
                    out.append(self.node(x + dx, y + sy))
        return sorted(set(out))

    # ------------------------------------------------------------------
    # Alignment predicates (used by placement quality checks)
    # ------------------------------------------------------------------
    def same_row(self, a: int, b: int) -> bool:
        return self.coord(a)[1] == self.coord(b)[1]

    def same_col(self, a: int, b: int) -> bool:
        return self.coord(a)[0] == self.coord(b)[0]

    def same_diagonal(self, a: int, b: int) -> bool:
        """Whether two nodes share any (45-degree) diagonal."""
        ax, ay = self.coord(a)
        bx, by = self.coord(b)
        return abs(ax - bx) == abs(ay - by) and a != b

    def direction(self, src: int, dst: int) -> Coord:
        """Unit-ish direction ``(sign(dx), sign(dy))`` from ``src`` to ``dst``."""
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        step = lambda d: (d > 0) - (d < 0)  # noqa: E731 - tiny sign helper
        return step(dx - sx), step(dy - sy)


AXIS_DIRECTIONS: Tuple[Coord, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))
"""The four axis directions (E, W, S, N) used for EIR placement."""

