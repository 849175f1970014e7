"""N-Queen solvers used for cache-bank placement (paper section 4.2).

The paper places CBs so that no two share a row, column or diagonal —
exactly the N-Queen constraint.  For an 8x8 network all 92 solutions are
enumerated and scored; for larger networks a sampled subset is used.

Solutions are represented as a tuple ``cols`` where ``cols[row]`` is the
column of the queen in ``row`` — this encodes the distinct-row and
distinct-column constraints structurally.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

from .grid import Grid

Solution = Tuple[int, ...]


def is_valid_solution(cols: Sequence[int]) -> bool:
    """Whether ``cols`` is a valid N-Queen solution."""
    n = len(cols)
    if sorted(cols) != list(range(n)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if abs(cols[i] - cols[j]) == j - i:
                return False
    return True


def solve_all(n: int) -> List[Solution]:
    """Enumerate every N-Queen solution of an ``n``-board by
    backtracking (row by row)."""
    if n <= 0:
        raise ValueError("n must be positive")
    solutions: List[Solution] = []
    cols: List[int] = []
    used_cols = [False] * n
    used_d1 = [False] * (2 * n)  # row + col
    used_d2 = [False] * (2 * n)  # row - col + n

    def backtrack(row: int) -> None:
        if row == n:
            solutions.append(tuple(cols))
            return
        for col in range(n):
            d1, d2 = row + col, row - col + n
            if used_cols[col] or used_d1[d1] or used_d2[d2]:
                continue
            used_cols[col] = used_d1[d1] = used_d2[d2] = True
            cols.append(col)
            backtrack(row + 1)
            cols.pop()
            used_cols[col] = used_d1[d1] = used_d2[d2] = False

    backtrack(0)
    return solutions


def sample_solutions(n: int, count: int, seed: int = 0) -> List[Solution]:
    """Sample up to ``count`` distinct solutions via randomised backtracking.

    Each attempt shuffles the column order tried at every row, yielding
    a diverse sample of the solution space without enumerating it.
    """
    rng = random.Random(seed)
    found: set = set()
    attempts = 0
    max_attempts = count * 50
    while len(found) < count and attempts < max_attempts:
        attempts += 1
        solution = _random_solution(n, rng)
        if solution is not None:
            found.add(solution)
    return sorted(found)


def _random_solution(n: int, rng: random.Random) -> Optional[Solution]:
    """One randomised backtracking attempt; returns a solution or ``None``."""
    cols: List[int] = []
    used_cols = [False] * n
    used_d1 = [False] * (2 * n)
    used_d2 = [False] * (2 * n)

    def backtrack(row: int) -> bool:
        if row == n:
            return True
        order = list(range(n))
        rng.shuffle(order)
        for col in order:
            d1, d2 = row + col, row - col + n
            if used_cols[col] or used_d1[d1] or used_d2[d2]:
                continue
            used_cols[col] = used_d1[d1] = used_d2[d2] = True
            cols.append(col)
            if backtrack(row + 1):
                return True
            cols.pop()
            used_cols[col] = used_d1[d1] = used_d2[d2] = False
        return False

    if backtrack(0):
        return tuple(cols)
    return None


def solution_to_nodes(grid: Grid, cols: Sequence[int]) -> Tuple[int, ...]:
    """Convert a queen-per-row solution into grid node ids.

    Row ``r`` maps to grid ``y = r`` and the queen's column to ``x``.
    The board size must match the grid (square grids only).
    """
    if grid.width != grid.height:
        raise ValueError("N-Queen placement requires a square grid")
    if len(cols) != grid.height:
        raise ValueError(
            f"solution has {len(cols)} rows but grid height is {grid.height}"
        )
    return tuple(grid.node(col, row) for row, col in enumerate(cols))


SAMPLED_SOLUTIONS = 256
"""How many solutions :func:`candidate_solutions` draws above n = 10."""


def candidate_solutions(n: int) -> List[Solution]:
    """Solutions to score for an ``n x n`` grid.

    For ``n <= 10`` every solution is enumerated (92 for n=8); above
    that a deterministic sample of :data:`SAMPLED_SOLUTIONS` is drawn,
    mirroring the paper's "generate a number of N-Queen placements"
    procedure for large networks.
    """
    if n <= 10:
        return solve_all(n)
    return sample_solutions(n, SAMPLED_SOLUTIONS)


def prune_to_k(
    cols: Sequence[int], k: int, seed: int = 0, max_subsets: int = 512
) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Yield ``(x, y)`` placements of size ``k`` pruned from a full solution.

    When the processor has fewer CBs than N, redundant queens are
    deleted and the scoring policy picks the best subset (paper §6.8).
    Each yielded placement is a tuple of ``(col, row)`` coordinates.
    All subsets are yielded when few enough, otherwise a deterministic
    random sample of ``max_subsets``.  The sample is of *row* subsets
    and depends only on ``(n, k, seed, max_subsets)``, so every solution
    of one board is pruned by the same rows.  That is deliberate:
    drawing per solution would move the placements Figure 12 uses.
    """
    n = len(cols)
    if k > n:
        raise ValueError("cannot prune to more queens than present")
    for rows in _row_subsets(n, k, seed, max_subsets):
        yield tuple((cols[r], r) for r in rows)


@lru_cache(maxsize=64)
def _row_subsets(
    n: int, k: int, seed: int, max_subsets: int
) -> Tuple[Tuple[int, ...], ...]:
    """The row subsets :func:`prune_to_k` keeps, drawn once per argument set."""
    all_subsets = list(combinations(range(n), k))
    rng = random.Random(seed)
    if len(all_subsets) > max_subsets:
        rng.shuffle(all_subsets)
        all_subsets = all_subsets[:max_subsets]
    return tuple(all_subsets)
