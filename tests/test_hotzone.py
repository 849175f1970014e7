"""Unit tests for hot zones and the placement scoring policy."""

import pytest
from hypothesis import given, strategies as st

from repro.core import hotzone
from repro.core.grid import Grid


class TestZones:
    def test_daz_interior(self):
        grid = Grid(8)
        cb = grid.node(4, 4)
        daz = hotzone.daz(grid, cb)
        assert daz == {
            grid.node(3, 4), grid.node(5, 4), grid.node(4, 3), grid.node(4, 5)
        }

    def test_caz_interior(self):
        grid = Grid(8)
        cb = grid.node(4, 4)
        caz = hotzone.caz(grid, cb)
        assert caz == {
            grid.node(3, 3), grid.node(5, 3), grid.node(3, 5), grid.node(5, 5)
        }

    def test_hot_zone_is_eight_tiles_interior(self):
        grid = Grid(8)
        assert len(hotzone.hot_zone(grid, grid.node(3, 3))) == 8

    def test_hot_zone_clipped_at_corner(self):
        grid = Grid(8)
        assert len(hotzone.hot_zone(grid, grid.node(0, 0))) == 3

    def test_daz_caz_disjoint(self):
        grid = Grid(8)
        cb = grid.node(2, 5)
        assert not hotzone.daz(grid, cb) & hotzone.caz(grid, cb)


class TestOverlaps:
    def test_far_apart_no_overlap(self):
        grid = Grid(8)
        placement = (grid.node(0, 0), grid.node(7, 7))
        assert hotzone.overlap_tiles(grid, placement) == set()

    def test_adjacent_diagonal_cbs_overlap(self):
        grid = Grid(8)
        placement = (grid.node(3, 3), grid.node(4, 4))
        overlaps = hotzone.overlap_tiles(grid, placement)
        assert overlaps  # hot zones share tiles
        assert grid.node(4, 3) in overlaps
        assert grid.node(3, 4) in overlaps

    def test_knight_move_daz_caz_overlap(self):
        grid = Grid(8)
        # A knight's move apart: DAZ of one meets CAZ of the other.
        placement = (grid.node(2, 2), grid.node(3, 4))
        kinds = hotzone.overlap_kinds(grid, placement)
        assert any("caz-daz" in k for k in kinds.values())

    def test_single_cb_no_overlap(self):
        grid = Grid(8)
        assert hotzone.overlap_tiles(grid, (grid.node(4, 4),)) == set()

    def test_nqueen_has_no_dazdaz_cazcaz_overlaps(self):
        """Paper: N-Queen placements only produce DAZ-CAZ overlaps."""
        from repro.core.nqueen import solve_all, solution_to_nodes

        grid = Grid(8)
        for cols in solve_all(8)[:20]:
            placement = solution_to_nodes(grid, cols)
            kinds = hotzone.overlap_kinds(grid, placement)
            for tile_kinds in kinds.values():
                assert tile_kinds <= {"caz-daz"}, tile_kinds


class TestPenalty:
    def test_node_penalty_triangle_numbers(self):
        assert hotzone.node_penalty(0) == 0
        assert hotzone.node_penalty(1) == 1
        assert hotzone.node_penalty(2) == 3
        assert hotzone.node_penalty(3) == 6
        assert hotzone.node_penalty(4) == 10

    def test_node_penalty_negative(self):
        with pytest.raises(ValueError):
            hotzone.node_penalty(-1)

    def test_no_overlap_zero_penalty(self):
        grid = Grid(8)
        placement = (grid.node(0, 0), grid.node(7, 7))
        assert hotzone.placement_penalty(grid, placement) == 0

    def test_clustered_worse_than_spread(self):
        grid = Grid(8)
        clustered = tuple(grid.node(x, 0) for x in range(4))
        spread = (
            grid.node(0, 0), grid.node(7, 0), grid.node(0, 7), grid.node(7, 7)
        )
        assert hotzone.placement_penalty(grid, clustered) > (
            hotzone.placement_penalty(grid, spread)
        )

    def test_penalty_map_matches_total(self):
        grid = Grid(8)
        placement = tuple(grid.node(x, 0) for x in range(0, 8, 2))
        pmap = hotzone.penalty_map(grid, placement)
        assert sum(pmap.values()) == hotzone.placement_penalty(grid, placement)

    @given(st.sets(st.integers(0, 63), min_size=2, max_size=8))
    def test_penalty_non_negative(self, nodes):
        grid = Grid(8)
        assert hotzone.placement_penalty(grid, tuple(nodes)) >= 0

    def test_penalty_permutation_invariant(self):
        grid = Grid(8)
        placement = (5, 18, 33, 60)
        shuffled = (33, 60, 5, 18)
        assert hotzone.placement_penalty(grid, placement) == (
            hotzone.placement_penalty(grid, shuffled)
        )


def brute_force_penalties(grid, placement):
    """Every node's penalty by scanning its own neighbourhood."""
    overlaps = hotzone.overlap_tiles(grid, placement)
    out = {}
    for node in grid.nodes():
        m = sum(1 for nb in grid.neighbors(node) if nb in overlaps)
        out[node] = hotzone.node_penalty(m)
    return out


class TestPenaltyFromOverlaps:
    """The overlap-outward count against the per-node scan it replaced."""

    @given(st.data())
    def test_matches_per_node_scan(self, data):
        width = data.draw(st.integers(3, 12), label="width")
        height = data.draw(st.integers(3, 12), label="height")
        grid = Grid(width, height)
        placement = tuple(data.draw(st.lists(
            st.integers(0, grid.size - 1), min_size=1, max_size=grid.size // 2,
            unique=True,
        ), label="placement"))
        expected = brute_force_penalties(grid, placement)
        assert hotzone.placement_penalty(grid, placement) == sum(
            expected.values()
        )
        # Same entries, in node order, zeros left out.
        assert list(hotzone.penalty_map(grid, placement).items()) == [
            (node, p) for node, p in expected.items() if p
        ]

