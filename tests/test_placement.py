"""Unit tests for the CB placement strategies."""

import pytest

from repro.core import placement
from repro.core.grid import Grid


@pytest.fixture
def grid():
    return Grid(8)


class TestTopSide:
    def test_top_on_first_row(self, grid):
        result = placement.top(grid, 8)
        assert all(grid.coord(n)[1] == 0 for n in result.nodes)
        assert len(set(result.nodes)) == 8

    def test_side_on_left_column(self, grid):
        result = placement.side(grid, 8)
        cols = {grid.coord(n)[0] for n in result.nodes}
        assert cols == {0}
        assert len(set(result.nodes)) == 8

    def test_top_fewer_cbs(self, grid):
        result = placement.top(grid, 4)
        assert len(result) == 4


class TestDiagonalDiamond:
    def test_diagonal_on_main_diagonal(self, grid):
        result = placement.diagonal(grid, 8)
        assert all(x == y for x, y in map(grid.coord, result.nodes))

    def test_diamond_distinct_rows_and_columns(self, grid):
        """The paper relies on Diamond having no shared rows/columns."""
        result = placement.diamond(grid, 8)
        coords = [grid.coord(n) for n in result.nodes]
        assert len({x for x, _ in coords}) == 8
        assert len({y for _, y in coords}) == 8

    def test_diamond_has_diagonal_neighbors(self, grid):
        """The weakness the paper calls out: adjacent diagonal CBs."""
        result = placement.diamond(grid, 8)
        found = any(
            grid.same_diagonal(a, b) and grid.hops(a, b) == 2
            for a in result.nodes
            for b in result.nodes
            if a != b
        )
        assert found

    def test_diagonal_requires_square(self):
        with pytest.raises(ValueError):
            placement.diagonal(Grid(8, 4), 4)


class TestNQueen:
    def test_nqueen_no_alignment(self, grid):
        result = placement.nqueen_best(grid, 8)
        nodes = result.nodes
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert not grid.same_row(a, b)
                assert not grid.same_col(a, b)
                assert not grid.same_diagonal(a, b)

    def test_nqueen_best_is_minimal_penalty(self, grid):
        """The chosen solution must beat (or tie) every other solution."""
        from repro.core.hotzone import placement_penalty
        from repro.core.nqueen import solve_all, solution_to_nodes

        best = placement.nqueen_best(grid, 8)
        for cols in solve_all(8):
            nodes = solution_to_nodes(grid, cols)
            assert placement_penalty(grid, nodes) >= best.penalty

    def test_nqueen_beats_figure4_placements(self, grid):
        """N-Queen's penalty is the lowest among the compared placements."""
        best = placement.nqueen_best(grid, 8)
        for name in ("top", "side", "diagonal", "diamond"):
            other = placement.by_name(name, grid, 8)
            assert best.penalty <= other.penalty

    def test_nqueen_pruned_for_fewer_cbs(self, grid):
        result = placement.nqueen_best(grid, 6)
        assert len(result) == 6
        coords = [grid.coord(n) for n in result.nodes]
        assert len({x for x, _ in coords}) == 6
        assert len({y for _, y in coords}) == 6

    def test_nqueen_large_grid_sampled(self):
        grid = Grid(12)
        result = placement.nqueen_best(grid, 8)
        assert len(result) == 8

    def test_nqueen_too_many_cbs(self, grid):
        with pytest.raises(ValueError):
            placement.nqueen_best(grid, 9)

    @pytest.mark.parametrize("width", [2, 3])
    def test_nqueen_no_solution_names_the_width(self, width):
        # No N-Queen solution exists for n = 2 or 3: a ValueError that
        # names the grid, not a bare assert (stripped under -O).
        with pytest.raises(ValueError, match=f"{width}x{width}"):
            placement.nqueen_best(Grid(width), 2)


class TestKnightMove:
    def test_knight_move_many_cbs(self, grid):
        result = placement.knight_move(grid, 12)
        assert len(result) == 12
        assert len(set(result.nodes)) == 12

    def test_knight_move_spacing(self, grid):
        """Consecutive knight-placed CBs are a knight's move apart."""
        result = placement.knight_move(grid, 8)
        a, b = result.nodes[0], result.nodes[1]
        ax, ay = grid.coord(a)
        bx, by = grid.coord(b)
        assert (abs(ax - bx), abs(ay - by)) in {(1, 2), (2, 1)}

    def test_knight_move_fills_whole_grid(self):
        grid = Grid(4)
        result = placement.knight_move(grid, 16)
        assert sorted(result.nodes) == list(grid.nodes())

    def test_knight_move_invalid(self, grid):
        with pytest.raises(ValueError):
            placement.knight_move(grid, 0)
        with pytest.raises(ValueError):
            placement.knight_move(grid, 65)


class TestByName:
    def test_all_strategies_available(self, grid):
        for name in placement.STRATEGIES:
            result = placement.by_name(name, grid, 8)
            assert len(result) == 8
            assert result.name == name

    def test_unknown_name(self, grid):
        with pytest.raises(ValueError, match="unknown placement"):
            placement.by_name("spiral", grid, 8)

    def test_penalty_recorded(self, grid):
        result = placement.by_name("top", grid, 8)
        from repro.core.hotzone import placement_penalty

        assert result.penalty == placement_penalty(grid, result.nodes)
