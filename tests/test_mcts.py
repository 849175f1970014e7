"""Unit tests for the MCTS EIR search."""

import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import placement
from repro.core.eir import enumerate_groups, make_group
from repro.core.grid import Grid
from repro.core.mcts import (
    EirSearch,
    Node,
    SearchConfig,
    SearchResult,
    random_search,
)


@pytest.fixture
def grid():
    return Grid(8)


@pytest.fixture
def nodes(grid):
    return placement.nqueen_best(grid, 8).nodes


class TestNode:
    def test_state_path(self):
        root = Node(action=None)
        g1 = make_group(1, {(1, 0): 3})
        g2 = make_group(2, {(0, 1): 10})
        child = root.add_child(g1)
        grandchild = child.add_child(g2)
        assert grandchild.state() == (g1, g2)
        assert grandchild.depth == 2

    def test_ucb_unvisited_infinite(self):
        root = Node(action=None)
        root.visits = 10
        child = root.add_child(make_group(1, {}))
        assert root.ucb(child) == math.inf

    def test_ucb_formula(self):
        root = Node(action=None)
        root.visits = 100
        child = root.add_child(make_group(1, {}))
        child.visits = 10
        child.total_reward = 5.0
        expected = 0.5 + math.sqrt(2) * math.sqrt(math.log(100) / 10)
        assert root.ucb(child) == pytest.approx(expected)

    def test_ucb_balances_exploration(self):
        root = Node(action=None)
        root.visits = 1000
        exploited = root.add_child(make_group(1, {}))
        exploited.visits, exploited.total_reward = 900, 540  # mean 0.6
        neglected = root.add_child(make_group(2, {}))
        neglected.visits, neglected.total_reward = 5, 2.5  # mean 0.5
        # The rarely-visited child wins on UCB despite lower mean.
        assert root.ucb(neglected) > root.ucb(exploited)

    def test_backpropagate_accumulates(self):
        root = Node(action=None)
        child = root.add_child(make_group(1, {}))
        child.backpropagate(0.7)
        child.backpropagate(0.3)
        assert root.visits == 2
        assert root.total_reward == pytest.approx(1.0)
        assert child.mean_reward == pytest.approx(0.5)

    def test_best_child_value(self):
        root = Node(action=None)
        a = root.add_child(make_group(1, {}))
        b = root.add_child(make_group(2, {}))
        a.visits, a.total_reward = 10, 6.0
        b.visits, b.total_reward = 10, 7.0
        assert root.best_child_value() is b

    def test_best_child_empty_raises(self):
        with pytest.raises(ValueError):
            Node(action=None).best_child_ucb()

    def test_tree_size(self):
        root = Node(action=None)
        c = root.add_child(make_group(1, {}))
        c.add_child(make_group(2, {}))

        def size(node):
            return 1 + sum(size(child) for child in node.children)

        assert size(root) == 3


class TestSearch:
    def test_run_produces_complete_design(self, grid, nodes):
        search = EirSearch(grid, nodes, SearchConfig(iterations_per_level=20))
        result = search.run()
        assert len(result.design.groups) == len(nodes)
        assert result.evaluation.score > 0

    def test_deterministic_given_seed(self, grid, nodes):
        cfg = SearchConfig(iterations_per_level=15, seed=7)
        a = EirSearch(grid, nodes, cfg).run()
        b = EirSearch(grid, nodes, cfg).run()
        assert a.design == b.design
        assert a.evaluation.score == b.evaluation.score

    def test_different_seeds_explore(self, grid, nodes):
        a = EirSearch(grid, nodes, SearchConfig(iterations_per_level=10, seed=1)).run()
        b = EirSearch(grid, nodes, SearchConfig(iterations_per_level=10, seed=2)).run()
        # Not a strict requirement, but with this few iterations the
        # search should not have converged to the same design.
        assert a.designs_evaluated > 0 and b.designs_evaluated > 0

    def test_tree_depth_equals_cb_count(self, grid, nodes):
        """Group-per-level expansion: one level per CB (paper 4.3)."""
        search = EirSearch(grid, nodes, SearchConfig(iterations_per_level=5))
        result = search.run()
        assert len(result.best_score_trace) == len(nodes)

    def test_actions_respect_taken_eirs(self, grid, nodes):
        search = EirSearch(grid, nodes, SearchConfig())
        first = search.actions(())[0]
        second_actions = search.actions((first,))
        used = set(first.nodes)
        for group in second_actions:
            assert not (set(group.nodes) & used)

    def test_rollout_completes_state(self, grid, nodes):
        search = EirSearch(grid, nodes, SearchConfig(seed=3))
        full = search.rollout(())
        assert len(full) == len(nodes)
        assert search.is_terminal(full)

    def test_more_iterations_not_worse(self, grid, nodes):
        """MCTS with a real budget should beat a nearly-greedy run."""
        small = EirSearch(grid, nodes, SearchConfig(iterations_per_level=2,
                                                    seed=0)).run()
        large = EirSearch(grid, nodes, SearchConfig(iterations_per_level=60,
                                                    seed=0)).run()
        assert large.evaluation.score <= small.evaluation.score * 1.05

    def test_eval_cache_hit(self, grid, nodes):
        search = EirSearch(grid, nodes, SearchConfig(seed=0))
        state = search.rollout(())
        first = search.evaluate_state(state)
        count = search.designs_evaluated
        second = search.evaluate_state(state)
        assert first is second
        assert search.designs_evaluated == count


class TestRandomSearch:
    def test_random_search_returns_best_seen(self, grid, nodes):
        result = random_search(grid, nodes, samples=20,
                               config=SearchConfig(seed=5))
        assert isinstance(result, SearchResult)
        assert len(result.best_score_trace) == 20
        # The trace is non-increasing (best-so-far).
        for earlier, later in zip(result.best_score_trace,
                                  result.best_score_trace[1:]):
            assert later <= earlier

    def test_mcts_beats_random_at_equal_budget(self, grid, nodes):
        """The paper's search-efficiency claim, at small scale."""
        mcts = EirSearch(grid, nodes,
                         SearchConfig(iterations_per_level=40, seed=0)).run()
        rand = random_search(grid, nodes, samples=mcts.designs_evaluated,
                             config=SearchConfig(seed=0))
        assert mcts.evaluation.score <= rand.evaluation.score * 1.10


@functools.lru_cache(maxsize=None)
def _placement(kind, width, num_cbs):
    if kind == "nqueen":
        return placement.nqueen_best(Grid(width), num_cbs).nodes
    return placement.knight_move(Grid(width), num_cbs).nodes


class TestActionMemo:
    @settings(max_examples=30)
    @given(data=st.data())
    def test_memoised_actions_equal_enumerate_groups(self, data):
        kind, width, num_cbs = data.draw(st.sampled_from(
            [("nqueen", 6, 4), ("nqueen", 8, 8), ("knight", 8, 10)]
        ))
        require_full = data.draw(st.booleans())
        grid = Grid(width)
        nodes = _placement(kind, width, num_cbs)
        search = EirSearch(
            grid, nodes, SearchConfig(require_full_groups=require_full)
        )
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        with_taken = 0
        # Many partial states through one search, so later lookups are
        # served by entries that earlier, different states created.
        for _ in range(12):
            depth = rng.randrange(1, len(nodes))
            state, taken = [], set()
            for cb in nodes[:depth]:
                options = enumerate_groups(
                    grid, nodes, cb, taken=frozenset(taken)
                )
                group = rng.choice([g for g in options if g.nodes] or options)
                state.append(group)
                taken.update(group.nodes)
            cb = nodes[depth]
            expected = enumerate_groups(
                grid, nodes, cb, taken=frozenset(taken),
                require_full=require_full,
            ) or [make_group(cb, {})]
            assert list(search.actions(state)) == expected
            with_taken += bool(taken)
        assert with_taken
