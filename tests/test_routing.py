"""Unit tests for XY and odd-even routing, and the loop route table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import Grid
from repro.noc import routing
from repro.noc.loops import ring_loops, routerless_loops, verify_loop_cover
from repro.noc.network import Network
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
from repro.workloads.synthetic import run_uniform


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


def scalar_route(grid, algorithm, cur, src, dst):
    """The scalar statement of ``algorithm``: what every table must equal."""
    if algorithm == "xy":
        return tuple(xy_route(grid, cur, dst))
    return tuple(odd_even_routes(grid, cur, src, dst))


def assert_table_equals_scalar(grid, algorithm):
    nodes = list(grid.nodes())
    for cur in nodes:
        for src in nodes:
            for dst in nodes:
                assert routing.route_candidates(
                    grid, algorithm, cur, src, dst
                ) == scalar_route(grid, algorithm, cur, src, dst), (cur, src, dst)


class TestDispatch:
    def test_route_candidates_xy(self, grid):
        assert routing.route_candidates(grid, "xy", 0, 0, 9)

    def test_route_candidates_oddeven(self, grid):
        assert routing.route_candidates(grid, "oddeven", 0, 0, 9)

    def test_unknown_algorithm(self, grid):
        with pytest.raises(ValueError, match="valiant"):
            routing.route_candidates(grid, "valiant", 0, 0, 9)
        with pytest.raises(ValueError, match="valiant"):
            routing.route_table(8, 8, "valiant")

    @pytest.mark.parametrize("algorithm", ["xy", "oddeven"])
    def test_memo_matches_uncached_and_ignores_source_count(self, algorithm):
        # Full (cur, src, dst) enumeration of a square and an odd-width
        # non-square mesh equals the scalar functions, and the table
        # behind it is exactly 2·N² bytes however many sources asked.
        for grid in (Grid(6), Grid(5, 7)):
            table = routing.route_table(grid.width, grid.height, algorithm)
            assert_table_equals_scalar(grid, algorithm)
            again = routing.route_table(grid.width, grid.height, algorithm)
            assert again is table
            assert type(table) is bytes
            assert len(table) == 2 * grid.size ** 2
            assert max(table) < len(routing.CANDIDATES)

    @pytest.mark.parametrize("algorithm", ["xy", "oddeven"])
    @pytest.mark.parametrize(
        "shape", [(4, 4), (7, 4), (8, 8), (1, 5), (5, 1), (3, 2)], ids=str
    )
    def test_table_equals_scalar_on_every_shape(self, shape, algorithm):
        assert_table_equals_scalar(Grid(*shape), algorithm)


class TestOneTablePerShape:
    """Route state is bounded by topology, not by traffic."""

    def test_networks_and_engines_of_one_shape_share_the_table(self):
        from repro.noc import vector
        from repro.noc.network import network_class

        routing.route_table.cache_clear()
        kwargs = dict(injection_rate=0.1, cycles=40, seed=1)
        run_uniform(Grid(4), **kwargs)
        table = routing.route_table(4, 4, "oddeven")
        with vector.arming(0, 0):
            armed = [
                run_uniform(Grid(4), engine="vector", **kwargs).network
                for _ in range(2)
            ]
        assert all(type(net) is network_class("vector") for net in armed)
        # np.frombuffer views the bytes: no copy per network or per arm.
        assert all(net._soa.routes.base is table for net in armed)
        assert routing.route_table.cache_info().currsize == 1

    def test_six_traffic_seeds_leave_one_table(self):
        # The structural form of "RSS flat across traffic seeds": the
        # retired memo grew with every new (cur, dst) pair a seed asked.
        routing.route_table.cache_clear()
        for seed in range(6):
            run = run_uniform(Grid(8), injection_rate=0.08, cycles=60,
                              seed=seed)
            assert run.received
        info = routing.route_table.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        assert len(routing.route_table(8, 8, "oddeven")) == 2 * 64 ** 2


class TestDeadlockFreedom:
    """The paper's section 4.4 argument, checked from the route table.

    An oracle the simulator did not produce: the channel dependency
    graph of everything the table permits — every node as source (an
    EIR injects replies away from their CB, so any router can be one),
    every destination, every candidate at every hop — must be acyclic
    (Dally and Seitz), every path minimal, and Chiu's two turn rules
    hold as stated in the odd-even paper rather than as coded in
    ``odd_even_routes``.  The loop topologies get the same oracle from
    their ``LoopTable``: the graph is acyclic under the dateline rank of
    ``repro.noc.loops``, and every loop set covers every pair.
    """

    @staticmethod
    def walk(grid, algorithm):
        """``(edges, turns)`` over every path the routing permits.

        A channel is ``(node, out port)``; an edge joins the channel a
        packet holds to each channel it may request next; a turn is
        ``(column of the turning node, direction held, direction
        requested)``.
        """
        width = grid.width
        edges = {}
        turns = set()
        links = set()
        for dst in grid.nodes():
            assert routing.route_candidates(grid, algorithm, dst, 0, dst) == (
                PORT_EJECT,
            )
            # Routing reads the source only as "same column as cur", so
            # (cur, arrival direction, source column) is the whole state.
            stack = [(src, None, src % width) for src in grid.nodes()]
            seen = set()
            while stack:
                state = stack.pop()
                if state in seen or state[0] == dst:
                    continue
                seen.add(state)
                cur, held, src_col = state
                src = grid.node(src_col, 0)
                ports = routing.route_candidates(
                    grid, algorithm, cur, src, dst
                )
                assert ports
                for port in ports:
                    nxt = step(grid, cur, port)  # raises if it leaves the mesh
                    assert grid.hops(nxt, dst) == grid.hops(cur, dst) - 1
                    links.add((cur, port))
                    if held is not None:
                        prev = step(grid, cur, opposite(held))
                        edges.setdefault((prev, held), set()).add((cur, port))
                        turns.add((cur % width, held, port))
                    stack.append((nxt, port, src_col))
        # Non-vacuous: every directed mesh link carries some path.
        assert len(links) == 2 * (
            (width - 1) * grid.height + width * (grid.height - 1)
        )
        return edges, turns

    @staticmethod
    def cyclic(edges):
        """Whether the dependency graph has a cycle (iterative DFS)."""
        done = set()
        for root in edges:
            if root in done:
                continue
            path = {root}
            stack = [(root, iter(edges.get(root, ())))]
            while stack:
                node, successors = stack[-1]
                for nxt in successors:
                    if nxt in path:
                        return True
                    if nxt not in done:
                        path.add(nxt)
                        stack.append((nxt, iter(edges.get(nxt, ()))))
                        break
                else:
                    stack.pop()
                    path.discard(node)
                    done.add(node)
        return False

    def test_cycle_detector_finds_a_ring(self):
        ring = {0: {1}, 1: {2}, 2: {0}, 3: {0}}
        assert self.cyclic(ring)
        assert not self.cyclic({0: {1, 2}, 1: {2}, 3: {0}})

    @pytest.mark.parametrize("algorithm", ["xy", "oddeven"])
    @pytest.mark.parametrize(
        "shape", [(4, 4), (5, 4), (6, 6), (7, 5), (8, 8)], ids=str
    )
    def test_channel_dependency_graph_is_acyclic(self, shape, algorithm):
        edges, turns = self.walk(Grid(*shape), algorithm)
        assert edges and not self.cyclic(edges)
        vertical = (PORT_N, PORT_S)
        for column, held, requested in turns:
            assert requested != opposite(held)  # no U-turn is minimal
            if algorithm == "xy":  # dimension order: never back into x
                assert held not in vertical or requested in vertical
            elif column % 2 == 0:  # Chiu rule 1: no EN/ES turn, even column
                assert not (held == PORT_E and requested in vertical)
            else:  # Chiu rule 2: no NW/SW turn, odd column
                assert not (held in vertical and requested == PORT_W)
        # Odd-even is adaptive, not dimension order in disguise: it does
        # turn out of vertical channels.
        assert (algorithm == "oddeven") == any(
            held in vertical and requested not in vertical
            for _column, held, requested in turns
        )

    @staticmethod
    def loop_walk(net, dateline=True):
        """``(edges, rank)`` over every path a loop network's table permits.

        A channel is ``(node, out port, vc)``: the link into the next
        position of a lane, read from the ``out``/``nxt`` columns.  A
        packet injected at any node of a lane holds each channel it has
        crossed while requesting the next, for up to ``length - 1`` hops,
        on the dateline VC (VC 0 throughout with ``dateline`` off).  The
        rank is the loops module's: ``(VC0, j) -> j``, ``(VC1, j) -> L +
        j`` for the channel into position ``j``.
        """
        table = net.loop_table
        size = table.nodes
        edges, rank = {}, {}
        for lane, members in enumerate(table.loops):
            length = table.length[lane]
            for inject in members:
                node, held = inject, None
                for _ in range(length - 1):
                    at = lane * size + node
                    port, j = table.out[at], table.nxt[at]
                    nxt = net.routers[node].neighbors[port][0]
                    assert table.pos[lane * size + nxt] == j
                    vc = table.vc(lane, inject, j) if dateline else 0
                    channel = (node, port, vc)
                    rank[channel] = vc * length + j
                    if held is not None:
                        edges.setdefault(held, set()).add(channel)
                    node, held = nxt, channel
        return edges, rank

    @pytest.mark.parametrize("width", range(4, 17))
    @pytest.mark.parametrize("make", [ring_loops, routerless_loops],
                             ids=["ring", "routerless"])
    def test_loop_dependency_graph_is_acyclic(self, make, width):
        grid = Grid(width)
        net = Network("loops", grid, 16, vc_classes=[(0,)],
                      loops=make(grid))
        edges, rank = self.loop_walk(net)
        assert edges and not self.cyclic(edges)
        # Every dependency climbs the dateline rank (the docstring's
        # argument, not just its conclusion), within the 2 VCs.
        assert all(
            rank[nxt] > rank[held]
            for held, successors in edges.items() for nxt in successors
        )
        assert {vc for _node, _port, vc in rank} == {0, 1}
        # Non-vacuous: without the dateline every loop closes a cycle.
        assert self.cyclic(self.loop_walk(net, dateline=False)[0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(2, 16))
    def test_loop_sets_cover_every_pair(self, width, height):
        grid = Grid(width, height)
        for make in (ring_loops, routerless_loops):
            loops = make(grid)
            verify_loop_cover(grid, loops)
            # Non-vacuous: drop the lanes through node 0 and its pairs
            # are on no common loop.
            rest = [lane for lane in loops if 0 not in lane]
            with pytest.raises(AssertionError, match="no loop covers"):
                verify_loop_cover(grid, rest)
