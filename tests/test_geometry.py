"""Unit tests for RDL segment geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.physical import geometry
from repro.physical.geometry import Segment


def seg(ax, ay, bx, by):
    return Segment((float(ax), float(ay)), (float(bx), float(by)))


class TestIntersection:
    def test_plus_cross(self):
        assert geometry.segments_intersect(seg(0, 1, 2, 1), seg(1, 0, 1, 2))

    def test_parallel_no_cross(self):
        assert not geometry.segments_intersect(seg(0, 0, 2, 0), seg(0, 1, 2, 1))

    def test_collinear_disjoint(self):
        assert not geometry.segments_intersect(seg(0, 0, 1, 0), seg(2, 0, 3, 0))

    def test_collinear_overlap(self):
        assert geometry.segments_intersect(seg(0, 0, 2, 0), seg(1, 0, 3, 0))

    def test_touching_endpoint(self):
        assert geometry.segments_intersect(seg(0, 0, 1, 1), seg(1, 1, 2, 0))

    def test_t_junction(self):
        assert geometry.segments_intersect(seg(0, 0, 2, 0), seg(1, 0, 1, 2))

    def test_diagonal_cross(self):
        assert geometry.segments_intersect(seg(0, 0, 2, 2), seg(0, 2, 2, 0))

    def test_near_miss(self):
        assert not geometry.segments_intersect(
            seg(0, 0, 1, 0), seg(1.1, 0.1, 2, 1)
        )


class TestConflicts:
    def test_shared_endpoint_fanout_ok(self):
        """Wires fanning out of the same CB bump may share that point."""
        assert not geometry.segments_cross(seg(0, 0, 2, 0), seg(0, 0, 0, 2))

    def test_shared_endpoint_overlap_conflicts(self):
        assert geometry.segments_cross(seg(0, 0, 2, 0), seg(0, 0, 3, 0))

    def test_proper_cross_conflicts(self):
        assert geometry.segments_cross(seg(0, 1, 2, 1), seg(1, 0, 1, 2))

    def test_count_crossings(self):
        segments = [
            seg(0, 1, 2, 1),
            seg(1, 0, 1, 2),   # crosses the first
            seg(5, 5, 6, 6),   # isolated
        ]
        assert geometry.count_crossings(segments) == 1
        assert geometry.crossing_pairs(segments) == [(0, 1)]

    def test_opposite_fanout_no_conflict(self):
        """Collinear but pointing away from the shared point."""
        assert not geometry.segments_cross(seg(1, 1, 0, 1), seg(1, 1, 2, 1))


class TestLength:
    def test_unit_length(self):
        assert seg(0, 0, 1, 0).length == 1.0

    def test_diagonal_length(self):
        assert seg(0, 0, 3, 4).length == pytest.approx(5.0)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-5, 5))
    def test_length_symmetric(self, ax, ay, bx, by):
        assert seg(ax, ay, bx, by).length == pytest.approx(
            seg(bx, by, ax, ay).length
        )


class TestCrossSymmetry:
    @given(
        st.tuples(st.integers(0, 7), st.integers(0, 7),
                  st.integers(0, 7), st.integers(0, 7)),
        st.tuples(st.integers(0, 7), st.integers(0, 7),
                  st.integers(0, 7), st.integers(0, 7)),
    )
    def test_symmetric(self, s1, s2):
        a = seg(*s1)
        b = seg(*s2)
        assert geometry.segments_cross(a, b) == geometry.segments_cross(b, a)
