"""Unit tests for XY and odd-even routing."""

import pytest
from hypothesis import given, strategies as st

from repro.core.grid import Grid
from repro.noc import routing
from repro.noc.routing import (
    PORT_E,
    PORT_EJECT,
    PORT_N,
    PORT_S,
    PORT_W,
    odd_even_routes,
    opposite,
    port_delta,
    xy_route,
)


@pytest.fixture
def grid():
    return Grid(8)


def step(grid, cur, port):
    x, y = grid.coord(cur)
    dx, dy = port_delta(port)
    return grid.node(x + dx, y + dy)


class TestPorts:
    def test_opposites(self):
        assert opposite(PORT_E) == PORT_W
        assert opposite(PORT_N) == PORT_S
        assert opposite(opposite(PORT_E)) == PORT_E

    def test_port_deltas(self):
        assert port_delta(PORT_E) == (1, 0)
        assert port_delta(PORT_N) == (0, -1)


class TestXY:
    def test_x_first(self, grid):
        cur = grid.node(2, 2)
        dst = grid.node(5, 6)
        assert xy_route(grid, cur, dst) == [PORT_E]

    def test_then_y(self, grid):
        cur = grid.node(5, 2)
        dst = grid.node(5, 6)
        assert xy_route(grid, cur, dst) == [PORT_S]

    def test_eject_at_destination(self, grid):
        node = grid.node(3, 3)
        assert xy_route(grid, node, node) == [PORT_EJECT]

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_xy_path_terminates(self, src, dst):
        grid = Grid(8)
        cur = src
        for _ in range(20):
            ports = xy_route(grid, cur, dst)
            if ports == [PORT_EJECT]:
                break
            cur = step(grid, cur, ports[0])
        assert cur == dst

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_xy_is_minimal(self, src, dst):
        grid = Grid(8)
        cur, hops = src, 0
        while cur != dst:
            cur = step(grid, cur, xy_route(grid, cur, dst)[0])
            hops += 1
        assert hops == grid.hops(src, dst)


class TestOddEven:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_never_empty(self, src, dst):
        grid = Grid(8)
        ports = odd_even_routes(grid, src, src, dst)
        assert ports

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_productive_only(self, src, dst):
        """Every returned port reduces the distance to the destination."""
        grid = Grid(8)
        if src == dst:
            return
        for port in odd_even_routes(grid, src, src, dst):
            nxt = step(grid, src, port)
            assert grid.hops(nxt, dst) == grid.hops(src, dst) - 1

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 1000))
    def test_all_choices_reach_destination(self, src, dst, pick_seed):
        """Any sequence of odd-even choices is minimal and terminates."""
        import random

        grid = Grid(8)
        rng = random.Random(pick_seed)
        cur, hops = src, 0
        while cur != dst:
            ports = odd_even_routes(grid, cur, src, dst)
            assert ports, (grid.coord(cur), grid.coord(dst))
            cur = step(grid, cur, rng.choice(ports))
            hops += 1
            assert hops <= grid.hops(src, dst)
        assert hops == grid.hops(src, dst)

    def test_turn_rule_even_column_no_en_turn(self, grid):
        """Eastbound packets at even columns may not turn north/south
        unless they entered the column legally (ROUTE-level check)."""
        # At an even column (not the source), heading east with dy != 0
        # and dx > 1: the vertical move must be disallowed.
        src = grid.node(1, 4)
        cur = grid.node(2, 4)  # even column, not source column
        dst = grid.node(5, 1)
        ports = odd_even_routes(grid, cur, src, dst)
        assert PORT_N not in ports
        assert ports == [PORT_E]

    def test_westbound_vertical_only_at_even(self, grid):
        src = grid.node(6, 2)
        dst = grid.node(1, 5)
        odd_col = grid.node(5, 2)
        even_col = grid.node(4, 2)
        assert PORT_S not in odd_even_routes(grid, odd_col, src, dst)
        assert PORT_S in odd_even_routes(grid, even_col, src, dst)

    def test_adaptive_choice_in_quadrant(self, grid):
        """Interior quadrant destinations usually offer two options."""
        src = grid.node(1, 1)
        dst = grid.node(6, 6)
        ports = odd_even_routes(grid, src, src, dst)
        assert len(ports) >= 1


class TestDispatch:
    def test_route_candidates_xy(self, grid):
        assert routing.route_candidates(grid, "xy", 0, 0, 9)

    def test_route_candidates_oddeven(self, grid):
        assert routing.route_candidates(grid, "oddeven", 0, 0, 9)

    def test_unknown_algorithm(self, grid):
        with pytest.raises(ValueError):
            routing.route_candidates(grid, "valiant", 0, 0, 9)

    @pytest.mark.parametrize("algorithm", ["xy", "oddeven"])
    def test_memo_matches_uncached_and_ignores_source_count(
        self, algorithm, monkeypatch
    ):
        # Full 6x6 (cur, src, dst) enumeration: 46 656 lookups must
        # equal the uncached functions, while the memo — keyed on the
        # same-column bit, not the source id — stays within 2·N² entries
        # however many distinct sources asked.
        monkeypatch.setattr(routing, "_ROUTE_CACHE", {})
        grid = Grid(6)
        nodes = list(grid.nodes())
        for cur in nodes:
            for src in nodes:
                for dst in nodes:
                    expected = (
                        xy_route(grid, cur, dst) if algorithm == "xy"
                        else odd_even_routes(grid, cur, src, dst)
                    )
                    assert routing.route_candidates(
                        grid, algorithm, cur, src, dst
                    ) == tuple(expected), (cur, src, dst)
        size = len(routing._ROUTE_CACHE)
        assert size <= 2 * grid.size ** 2
        # One source per column class already fills it: the rest of the
        # enumeration (34 more sources per router) added nothing.
        one_source = {}
        monkeypatch.setattr(routing, "_ROUTE_CACHE", one_source)
        for cur in nodes:
            for src in (cur, (cur + 1) % grid.size):
                for dst in nodes:
                    routing.route_candidates(grid, algorithm, cur, src, dst)
        assert len(one_source) == size
