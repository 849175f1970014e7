"""Unit tests for the grid coordinate helpers."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.grid import Grid


class TestAddressing:
    def test_node_coord_roundtrip(self):
        grid = Grid(8)
        for node in grid.nodes():
            x, y = grid.coord(node)
            assert grid.node(x, y) == node

    def test_row_major_order(self):
        grid = Grid(4)
        assert grid.node(0, 0) == 0
        assert grid.node(3, 0) == 3
        assert grid.node(0, 1) == 4
        assert grid.node(3, 3) == 15

    def test_rectangular_grid(self):
        grid = Grid(4, 2)
        assert grid.size == 8
        assert grid.coord(7) == (3, 1)

    def test_square_default(self):
        assert Grid(5).height == 5

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Grid(0)
        with pytest.raises(ValueError):
            Grid(4, -1)

    def test_out_of_range_node(self):
        grid = Grid(3)
        with pytest.raises(ValueError):
            grid.coord(9)
        with pytest.raises(ValueError):
            grid.node(3, 0)

    def test_contains(self):
        grid = Grid(3)
        assert grid.contains(2, 2)
        assert not grid.contains(3, 0)
        assert not grid.contains(-1, 0)


class TestDistances:
    def test_hops_manhattan(self):
        grid = Grid(8)
        assert grid.hops(grid.node(0, 0), grid.node(7, 7)) == 14
        assert grid.hops(grid.node(3, 3), grid.node(3, 3)) == 0
        assert grid.hops(grid.node(1, 2), grid.node(4, 0)) == 5

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_hops_symmetric(self, a, b):
        grid = Grid(8)
        assert grid.hops(a, b) == grid.hops(b, a)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_hops_triangle_inequality(self, a, b, c):
        grid = Grid(8)
        assert grid.hops(a, c) <= grid.hops(a, b) + grid.hops(b, c)

    def test_neighbors_interior(self):
        grid = Grid(8)
        node = grid.node(3, 3)
        assert len(grid.neighbors(node)) == 4
        assert all(grid.hops(node, nb) == 1 for nb in grid.neighbors(node))

    def test_neighbors_corner(self):
        grid = Grid(8)
        assert len(grid.neighbors(grid.node(0, 0))) == 2

    def test_diagonal_neighbors(self):
        grid = Grid(8)
        node = grid.node(3, 3)
        diag = grid.diagonal_neighbors(node)
        assert len(diag) == 4
        assert all(grid.hops(node, d) == 2 for d in diag)

    def test_ring_counts(self):
        grid = Grid(9)
        center = grid.node(4, 4)
        assert len(grid.ring(center, 1)) == 4
        assert len(grid.ring(center, 2)) == 8
        assert len(grid.ring(center, 0)) == 1

    def test_ring_radius_exact(self):
        grid = Grid(9)
        center = grid.node(4, 4)
        for r in (1, 2, 3):
            assert all(grid.hops(center, n) == r for n in grid.ring(center, r))

    def test_ring_clipped_at_boundary(self):
        grid = Grid(8)
        corner = grid.node(0, 0)
        assert len(grid.ring(corner, 2)) == 3  # (2,0), (1,1), (0,2)

    def test_ring_negative_radius(self):
        with pytest.raises(ValueError):
            Grid(4).ring(0, -1)


class TestTables:
    """The per-shape tables against the arithmetic they replaced."""

    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_tables_match_arithmetic(self, width, height, data):
        grid = Grid(width, height)
        a = data.draw(st.integers(0, grid.size - 1), label="a")
        b = data.draw(st.integers(0, grid.size - 1), label="b")
        ax, ay = a % width, a // width
        bx, by = b % width, b // width
        assert grid.coord(a) == (ax, ay)
        assert grid.hops(a, b) == abs(ax - bx) + abs(ay - by)
        assert grid.neighbors(a) == [
            (ay + dy) * width + ax + dx
            for dx, dy in ((0, -1), (0, 1), (1, 0), (-1, 0))
            if 0 <= ax + dx < width and 0 <= ay + dy < height
        ]

    def test_negative_and_overflow_nodes_rejected(self):
        grid = Grid(3)
        for call in (
            lambda: grid.coord(-1),
            lambda: grid.neighbors(-1),
            lambda: grid.neighbors(9),
            lambda: grid.hops(-1, 0),
            lambda: grid.hops(0, 9),
        ):
            with pytest.raises(ValueError):
                call()

    def test_grid_value_unchanged_by_tables(self):
        grid = Grid(5, 3)
        grid.hops(0, 14)  # builds the tables
        assert vars(grid) == {"width": 5, "height": 3}
        assert pickle.loads(pickle.dumps(grid)) == grid
        assert hash(grid) == hash(Grid(5, 3))


class TestAlignment:
    def test_same_row_col(self):
        grid = Grid(8)
        assert grid.same_row(grid.node(1, 3), grid.node(6, 3))
        assert grid.same_col(grid.node(2, 0), grid.node(2, 7))
        assert not grid.same_row(grid.node(1, 3), grid.node(1, 4))

    def test_same_diagonal(self):
        grid = Grid(8)
        assert grid.same_diagonal(grid.node(0, 0), grid.node(5, 5))
        assert grid.same_diagonal(grid.node(2, 5), grid.node(5, 2))
        assert not grid.same_diagonal(grid.node(0, 0), grid.node(1, 2))

    def test_same_diagonal_excludes_self(self):
        grid = Grid(8)
        assert not grid.same_diagonal(7, 7)

    def test_direction_signs(self):
        grid = Grid(8)
        a, b = grid.node(3, 3), grid.node(6, 1)
        assert grid.direction(a, b) == (1, -1)
        assert grid.direction(b, a) == (-1, 1)
        assert grid.direction(a, a) == (0, 0)

