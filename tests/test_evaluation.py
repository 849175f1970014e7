"""Unit tests for the four-metric MCTS evaluation function.

Also the MCTS evaluation memo: :class:`IncrementalEvaluator` must be
bit-identical to the direct :func:`evaluation.evaluate`, and its
crossing count to the RDL plan's, on every placement family.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import evaluation, eir, placement
from repro.core.grid import Grid
from repro.core.mcts import EirSearch, SearchConfig
from repro.core.placement import nqueen_best
from repro.physical import interposer


@pytest.fixture
def grid():
    return Grid(8)


@pytest.fixture
def nodes(grid):
    return placement.nqueen_best(grid, 8).nodes


def build_design(grid, nodes, pick=0, require_full=True):
    groups = []
    taken = set()
    for cb in nodes:
        options = eir.enumerate_groups(
            grid, nodes, cb, taken=frozenset(taken), require_full=require_full
        )
        group = options[min(pick, len(options) - 1)]
        groups.append(group)
        taken.update(group.nodes)
    return eir.EirDesign(grid=grid, placement=tuple(nodes),
                         groups=tuple(groups))


class TestInjectionLoads:
    def test_loads_conserve_traffic(self, grid, nodes):
        design = build_design(grid, nodes)
        loads = evaluation.injection_loads(design)
        num_pes = grid.size - len(nodes)
        assert sum(loads.values()) == pytest.approx(num_pes * len(nodes))

    def test_no_eirs_all_on_local(self, grid, nodes):
        design = eir.no_eir_design(grid, nodes)
        loads = evaluation.injection_loads(design)
        num_pes = grid.size - len(nodes)
        for cb in nodes:
            assert loads[cb] == pytest.approx(num_pes)

    def test_eirs_reduce_max_load(self, grid, nodes):
        with_eirs = evaluation.injection_loads(build_design(grid, nodes))
        without = evaluation.injection_loads(eir.no_eir_design(grid, nodes))
        assert max(with_eirs.values()) < max(without.values())


class TestAverageHops:
    def test_eirs_reduce_avg_hops(self, grid, nodes):
        with_eirs = evaluation.average_hops(build_design(grid, nodes))
        without = evaluation.average_hops(eir.no_eir_design(grid, nodes))
        assert with_eirs < without

    def test_positive(self, grid, nodes):
        assert evaluation.average_hops(build_design(grid, nodes)) > 0


class TestEvaluate:
    def test_result_has_all_metrics(self, grid, nodes):
        result = evaluation.evaluate(build_design(grid, nodes))
        assert set(result.raw) == {
            "max_load", "avg_hops", "crossings", "link_length"
        }
        assert set(result.normalized) == set(result.raw)

    def test_normalized_in_unit_range(self, grid, nodes):
        result = evaluation.evaluate(build_design(grid, nodes))
        for name, value in result.normalized.items():
            assert 0.0 <= value <= 1.5, (name, value)

    def test_lower_is_better_no_eirs_scores_high_load(self, grid, nodes):
        empty = evaluation.evaluate(eir.no_eir_design(grid, nodes))
        assert empty.normalized["max_load"] == pytest.approx(1.0)

    def test_weights_change_score(self, grid, nodes):
        design = build_design(grid, nodes)
        default = evaluation.evaluate(design)
        heavy = evaluation.evaluate(
            design,
            weights={"max_load": 10.0, "avg_hops": 1.0, "crossings": 1.0,
                     "link_length": 1.0},
        )
        assert heavy.score > default.score

    def test_score_is_weighted_sum(self, grid, nodes):
        result = evaluation.evaluate(build_design(grid, nodes))
        expected = sum(
            evaluation.DEFAULT_WEIGHTS[k] * v
            for k, v in result.normalized.items()
        )
        assert result.score == pytest.approx(expected)


class TestReward:
    def test_reward_in_unit_interval(self, grid, nodes):
        result = evaluation.evaluate(build_design(grid, nodes))
        r = evaluation.reward(result)
        assert 0.0 < r <= 1.0

    def test_reward_monotone(self, grid, nodes):
        good = evaluation.evaluate(build_design(grid, nodes))
        bad = evaluation.evaluate(eir.no_eir_design(grid, nodes))
        # The empty design has max load 1.0 and baseline hops; the EIR
        # design should be preferred (strictly higher reward).
        assert evaluation.reward(good) > evaluation.reward(bad)


# ----------------------------------------------------------------------
# MCTS evaluation memoization
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _placement(kind, width, num_cbs):
    grid = Grid(width)
    if kind == "nqueen":
        return placement.nqueen_best(grid, num_cbs).nodes
    return placement.knight_move(grid, num_cbs).nodes


# N-Queen placements, and knight-move ones with more CBs than N, which
# produce DAZ-DAZ overlaps (hence CBs with few or no EIR candidates).
PLACEMENTS = [
    ("nqueen", 4, 2), ("nqueen", 6, 4), ("nqueen", 8, 8), ("nqueen", 12, 8),
    ("knight", 4, 5), ("knight", 6, 8), ("knight", 8, 10), ("knight", 12, 14),
]


def random_state(grid, nodes, rng):
    """A legal design: one random group per CB, drawn CB by CB."""
    groups, taken = [], set()
    for cb in nodes:
        options = eir.enumerate_groups(
            grid, nodes, cb, taken=frozenset(taken),
            require_full=rng.random() < 0.5,
        ) or [eir.make_group(cb, {})]
        group = rng.choice(options)
        groups.append(group)
        taken.update(group.nodes)
    return groups


def assert_matches_direct(grid, nodes, evaluator, state):
    design = eir.EirDesign(grid=grid, placement=tuple(nodes),
                           groups=tuple(state))
    inc = evaluator.evaluate(state)
    direct = evaluation.evaluate(design)
    assert inc.score == direct.score
    assert inc.raw == direct.raw
    assert inc.normalized == direct.normalized


class TestIncrementalEvaluation:
    def test_incremental_matches_direct_bit_for_bit(self):
        grid = Grid(8)
        placement = nqueen_best(grid, 8).nodes
        search = EirSearch(grid, placement,
                           SearchConfig(iterations_per_level=5, seed=3))
        incremental = evaluation.IncrementalEvaluator(grid, placement)
        for _ in range(20):
            state = search.rollout(())
            inc = incremental.evaluate(state)
            direct = evaluation.evaluate(search._design(state))
            assert inc.score == direct.score
            assert inc.raw == direct.raw
            assert inc.normalized == direct.normalized

    def test_search_reports_nonzero_hit_rate(self):
        grid = Grid(8)
        placement = nqueen_best(grid, 8).nodes
        result = EirSearch(
            grid, placement, SearchConfig(iterations_per_level=40, seed=0)
        ).run()
        assert result.eval_cache_lookups > 0
        assert result.eval_cache_hits > 0
        assert 0.0 < result.eval_cache_hit_rate < 1.0
        assert (result.designs_evaluated
                == result.eval_cache_lookups - result.eval_cache_hits)

    def test_fragment_reuse_across_designs(self):
        grid = Grid(8)
        placement = nqueen_best(grid, 8).nodes
        search = EirSearch(grid, placement,
                           SearchConfig(iterations_per_level=5, seed=11))
        incremental = evaluation.IncrementalEvaluator(grid, placement)
        rng = random.Random(5)
        base = list(search.rollout(()))
        incremental.evaluate(base)
        fragments_after_first = len(incremental._fragments)
        # Replace one CB's group; only that CB's fragment is new.
        depth = rng.randrange(len(base))
        options = [g for g in search.actions(base[:depth])
                   if g != base[depth]]
        if options:
            mutated = base[:depth] + [rng.choice(options)]
            while not search.is_terminal(mutated):
                mutated.append(search.rollout(tuple(mutated))[len(mutated)])
            incremental.evaluate(mutated)
            grown = len(incremental._fragments) - fragments_after_first
            assert grown >= 1  # new fragments only for changed groups
            assert grown <= len(placement) - depth

    @pytest.mark.parametrize("kind,width,num_cbs", PLACEMENTS)
    @settings(max_examples=5)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_on_placements(self, kind, width, num_cbs, seed):
        grid = Grid(width)
        nodes = _placement(kind, width, num_cbs)
        evaluator = evaluation.IncrementalEvaluator(grid, nodes)
        rng = random.Random(seed)
        # Several designs through one evaluator, so later ones are served
        # partly from the fragment and crossing-pair memos.
        for _ in range(5):
            assert_matches_direct(
                grid, nodes, evaluator, random_state(grid, nodes, rng)
            )

    @settings(max_examples=25)
    @given(data=st.data())
    def test_matches_direct_on_custom_placements(self, data):
        width = data.draw(st.sampled_from([4, 6, 8, 12]), label="width")
        grid = Grid(width)
        nodes = tuple(data.draw(st.lists(
            st.integers(0, grid.size - 1), min_size=1,
            max_size=min(width + 4, grid.size - 1), unique=True,
        ), label="placement"))
        evaluator = evaluation.IncrementalEvaluator(grid, nodes)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(4):
            assert_matches_direct(
                grid, nodes, evaluator, random_state(grid, nodes, rng)
            )

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_crossing_memo_matches_rdl_plan(self, seed):
        # Hand-placed CBs close enough that their EIR wires cross.
        grid = Grid(8)
        nodes = (grid.node(2, 2), grid.node(4, 3), grid.node(3, 5),
                 grid.node(5, 5))
        evaluator = evaluation.IncrementalEvaluator(grid, nodes)
        rng = random.Random(seed)
        seen = set()
        for _ in range(12):
            state = random_state(grid, nodes, rng)
            design = eir.EirDesign(grid=grid, placement=nodes,
                                   groups=tuple(state))
            plan = interposer.plan_for_design(design)
            assert evaluator.evaluate(state).raw["crossings"] == (
                plan.num_crossings)
            seen.add(plan.num_crossings)
        assert max(seen) > 0

    def test_rejects_shared_eirs(self):
        grid = Grid(8)
        a, b = grid.node(2, 2), grid.node(5, 2)
        shared = grid.node(2, 4)
        evaluator = evaluation.IncrementalEvaluator(grid, (a, b))
        groups = [eir.make_group(a, {(0, 1): shared}),
                  eir.make_group(b, {(-1, 0): shared})]
        with pytest.raises(ValueError):
            evaluator.evaluate(groups)
        with pytest.raises(ValueError):
            evaluator.evaluate(groups[:1])
