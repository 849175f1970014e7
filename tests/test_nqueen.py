"""Unit tests for the N-Queen solvers."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import nqueen
from repro.core.grid import Grid


KNOWN_COUNTS = {1: 1, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92}


class TestSolveAll:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_known_solution_counts(self, n, count):
        assert len(nqueen.solve_all(n)) == count

    def test_all_solutions_valid(self):
        for cols in nqueen.solve_all(8):
            assert nqueen.is_valid_solution(cols)

    def test_solutions_distinct(self):
        solutions = nqueen.solve_all(8)
        assert len(set(solutions)) == len(solutions)

    def test_no_solution_for_n3(self):
        assert nqueen.solve_all(3) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            nqueen.solve_all(0)


class TestValidity:
    def test_valid_known_solution(self):
        assert nqueen.is_valid_solution((0, 4, 7, 5, 2, 6, 1, 3))

    def test_rejects_same_column(self):
        assert not nqueen.is_valid_solution((0, 0, 4, 6))

    def test_rejects_diagonal(self):
        assert not nqueen.is_valid_solution((0, 1, 3, 2))

    def test_rejects_non_permutation(self):
        assert not nqueen.is_valid_solution((0, 2, 9, 4))


class TestSampling:
    def test_sampled_solutions_valid(self):
        for cols in nqueen.sample_solutions(12, 10, seed=3):
            assert nqueen.is_valid_solution(cols)

    def test_sampling_deterministic(self):
        a = nqueen.sample_solutions(12, 8, seed=1)
        b = nqueen.sample_solutions(12, 8, seed=1)
        assert a == b

    def test_sampling_distinct(self):
        sols = nqueen.sample_solutions(16, 12, seed=0)
        assert len(set(sols)) == len(sols)
        assert len(sols) == 12

    @settings(deadline=None, max_examples=5)
    @given(st.integers(8, 14))
    def test_sampling_any_n(self, n):
        sols = nqueen.sample_solutions(n, 3, seed=0)
        assert sols
        assert all(nqueen.is_valid_solution(s) for s in sols)


class TestGridConversion:
    def test_solution_to_nodes(self):
        grid = Grid(8)
        cols = nqueen.solve_all(8)[0]
        nodes = nqueen.solution_to_nodes(grid, cols)
        assert len(nodes) == 8
        # One per row and one per column.
        coords = [grid.coord(n) for n in nodes]
        assert len({y for _x, y in coords}) == 8
        assert len({x for x, _y in coords}) == 8

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            nqueen.solution_to_nodes(Grid(8, 4), (0,) * 8)

    def test_mismatched_size_rejected(self):
        with pytest.raises(ValueError):
            nqueen.solution_to_nodes(Grid(8), (0, 1, 2))


class TestCandidates:
    def test_small_n_enumerates_all(self):
        assert len(nqueen.candidate_solutions(8)) == 92

    def test_large_n_samples(self):
        sols = nqueen.candidate_solutions(12)
        assert 0 < len(sols) <= nqueen.SAMPLED_SOLUTIONS

    def test_count_solutions(self):
        assert len(nqueen.solve_all(6)) == 4


class TestPruning:
    def test_prune_yields_coordinate_subsets(self):
        cols = nqueen.solve_all(8)[0]
        subsets = list(nqueen.prune_to_k(cols, 6, max_subsets=50))
        assert subsets
        for placement in subsets:
            assert len(placement) == 6
            # still distinct rows and columns
            assert len({x for x, _ in placement}) == 6
            assert len({y for _, y in placement}) == 6

    def test_prune_too_many(self):
        with pytest.raises(ValueError):
            list(nqueen.prune_to_k((0, 2), 3))

    def test_prune_respects_cap(self):
        cols = nqueen.solve_all(8)[0]
        subsets = list(nqueen.prune_to_k(cols, 4, max_subsets=10))
        assert len(subsets) == 10

    @settings(max_examples=30)
    @given(
        n=st.integers(4, 12), data=st.data(), seed=st.integers(0, 2**16),
        max_subsets=st.integers(1, 600),
    )
    def test_sample_matches_per_call_shuffle(self, n, data, seed, max_subsets):
        # The draw as it was made before it was memoised: a fresh
        # Random(seed) shuffling the full subset list on every call.
        k = data.draw(st.integers(1, n), label="k")
        cols = tuple(data.draw(st.permutations(range(n)), label="cols"))
        subsets = list(combinations(range(n), k))
        if len(subsets) > max_subsets:
            random.Random(seed).shuffle(subsets)
            subsets = subsets[:max_subsets]
        expected = [tuple((cols[r], r) for r in rows) for rows in subsets]
        for _ in range(2):  # the second call is served by the memo
            assert list(
                nqueen.prune_to_k(cols, k, seed=seed, max_subsets=max_subsets)
            ) == expected

    def test_every_solution_pruned_by_the_same_rows(self):
        rows = {
            tuple(tuple(y for _, y in p)
                  for p in nqueen.prune_to_k(cols, 8, max_subsets=32))
            for cols in nqueen.sample_solutions(16, 4)
        }
        assert len(rows) == 1
