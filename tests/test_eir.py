"""Unit tests for EIR groups, candidates and designs."""

import pytest

from repro.core import eir, placement
from repro.core.grid import Grid
from repro.core.hotzone import daz


def empty_design(grid, placement):
    """A design with empty groups: every CB injects at its own router."""
    groups = tuple(eir.make_group(cb, {}) for cb in placement)
    return eir.EirDesign(grid=grid, placement=tuple(placement),
                         groups=groups)


@pytest.fixture
def grid():
    return Grid(8)


@pytest.fixture
def nodes(grid):
    return placement.nqueen_best(grid, 8).nodes


class TestCandidates:
    def test_candidates_have_four_sectors(self, grid, nodes):
        cands = eir.candidate_positions(grid, nodes, nodes[0])
        assert set(cands) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_candidates_within_distance(self, grid, nodes):
        cb = nodes[3]
        cands = eir.candidate_positions(grid, nodes, cb)
        for options in cands.values():
            for node in options:
                assert 2 <= grid.hops(cb, node) <= 3

    def test_candidates_avoid_cbs_and_dazs(self, grid, nodes):
        forbidden = set(nodes)
        for cb in nodes:
            forbidden |= daz(grid, cb)
        for cb in nodes:
            cands = eir.candidate_positions(grid, nodes, cb)
            for options in cands.values():
                assert not (set(options) & forbidden)

    def test_candidates_sector_consistent(self, grid, nodes):
        cb = nodes[3]
        cx, cy = grid.coord(cb)
        cands = eir.candidate_positions(grid, nodes, cb)
        for node in cands[(1, 0)]:
            x, y = grid.coord(node)
            assert x - cx >= abs(y - cy) and x > cx

    def test_non_cb_rejected(self, grid, nodes):
        non_cb = next(n for n in grid.nodes() if n not in nodes)
        with pytest.raises(ValueError):
            eir.candidate_positions(grid, nodes, non_cb)


class TestGroups:
    def test_enumerate_groups_non_empty(self, grid, nodes):
        for cb in nodes:
            groups = eir.enumerate_groups(
                cb, eir.candidate_positions(grid, nodes, cb)
            )
            assert groups

    def test_require_full_groups_are_maximal(self, grid, nodes):
        cb = nodes[3]
        cands = eir.candidate_positions(grid, nodes, cb)
        non_empty_dirs = sum(1 for opts in cands.values() if opts)
        for group in eir.enumerate_groups(cb, cands, require_full=True):
            assert len(group) == non_empty_dirs

    def test_groups_respect_taken(self, grid, nodes):
        cb = nodes[3]
        cands = eir.candidate_positions(grid, nodes, cb)
        all_groups = eir.enumerate_groups(cb, cands)
        some_eir = next(g.nodes[0] for g in all_groups if g.nodes)
        filtered = eir.enumerate_groups(
            cb, cands, taken=frozenset({some_eir})
        )
        assert all(some_eir not in g.nodes for g in filtered)

    def test_group_one_eir_per_direction(self, grid, nodes):
        for cb in nodes[:3]:
            cands = eir.candidate_positions(grid, nodes, cb)
            for group in eir.enumerate_groups(cb, cands)[:50]:
                directions = [d for d, _n in group.eirs]
                assert len(directions) == len(set(directions))

    def test_make_group(self):
        group = eir.make_group(10, {(1, 0): 12, (0, 1): 26})
        assert group.cb == 10
        assert set(group.nodes) == {12, 26}
        assert dict(group.eirs)[(1, 0)] == 12


class TestDesign:
    def _design(self, grid, nodes):
        groups = []
        taken = set()
        for cb in nodes:
            options = eir.enumerate_groups(
                cb, eir.candidate_positions(grid, nodes, cb),
                taken=frozenset(taken), require_full=True,
            )
            groups.append(options[0])
            taken.update(options[0].nodes)
        return eir.EirDesign(grid=grid, placement=tuple(nodes),
                             groups=tuple(groups))

    def test_design_valid(self, grid, nodes):
        design = self._design(grid, nodes)
        assert len(design.groups) == 8
        assert design.eir_nodes.isdisjoint(set(nodes))

    def test_design_rejects_shared_eir(self, grid, nodes):
        design = self._design(grid, nodes)
        groups = list(design.groups)
        shared = groups[0].nodes[0]
        bad = eir.make_group(groups[1].cb, {(1, 0): shared})
        groups[1] = bad
        with pytest.raises(ValueError, match="shared"):
            eir.EirDesign(grid=grid, placement=tuple(nodes),
                          groups=tuple(groups))

    def test_design_rejects_wrong_cbs(self, grid, nodes):
        groups = tuple(eir.make_group(cb, {}) for cb in nodes[:-1])
        with pytest.raises(ValueError):
            eir.EirDesign(grid=grid, placement=tuple(nodes), groups=groups)

    def test_injection_points_local_first(self, grid, nodes):
        design = self._design(grid, nodes)
        cb = nodes[0]
        points = design.injection_points(cb)
        assert points[0] == cb
        assert set(points[1:]) == set(design.group_by_cb[cb].nodes)

    def test_links_and_length(self, grid, nodes):
        design = self._design(grid, nodes)
        links = design.links()
        assert all(src in nodes for src, _ in links)
        assert design.total_link_length() == sum(
            grid.hops(a, b) for a, b in links
        )

    def test_no_eir_design(self, grid, nodes):
        design = empty_design(grid, nodes)
        assert design.links() == []
        assert design.injection_points(nodes[0]) == (nodes[0],)


class TestShortestPathEirs:
    def test_on_path_eirs_cause_no_detour(self, grid, nodes):
        design = self._any_design(grid, nodes)
        for cb in nodes:
            for dst in grid.nodes():
                if dst == cb:
                    continue
                base = grid.hops(cb, dst)
                for e in eir.shortest_path_eirs(grid, design, cb, dst):
                    assert grid.hops(cb, e) + grid.hops(e, dst) == base

    def test_self_destination_rejected(self, grid, nodes):
        design = self._any_design(grid, nodes)
        with pytest.raises(ValueError):
            eir.shortest_path_eirs(grid, design, nodes[0], nodes[0])

    def _any_design(self, grid, nodes):
        groups = []
        taken = set()
        for cb in nodes:
            options = eir.enumerate_groups(
                cb, eir.candidate_positions(grid, nodes, cb),
                taken=frozenset(taken), require_full=True,
            )
            groups.append(options[-1])
            taken.update(options[-1].nodes)
        return eir.EirDesign(grid=grid, placement=tuple(nodes),
                             groups=tuple(groups))


def raw_space_size(grid, placement):
    """Upper bound on the number of complete EIR selections: the product
    over CBs of their group counts at distances 1..3, ignoring the
    no-sharing interaction between CBs (the raw space the paper sizes).
    Callers widen the band to 1..3 with the ``one_hop`` fixture."""
    total = 1
    for cb in placement:
        total *= len(eir.enumerate_groups(cb, eir.candidate_positions(
            grid, placement, cb)))
    return total


class TestDesignSpace:
    @pytest.fixture(autouse=True)
    def one_hop(self, monkeypatch):
        monkeypatch.setattr(eir, "MIN_EIR_DISTANCE", 1)
        assert eir.MAX_EIR_DISTANCE == 3

    def test_space_is_large(self, grid, nodes):
        """The paper quotes ~1.7e10 for 8x8; our action model is larger."""
        assert raw_space_size(grid, nodes) > 1e10

    def test_space_product_of_per_cb_counts(self, grid):
        nodes = (Grid(8).node(3, 3), Grid(8).node(6, 6))
        a = len(eir.enumerate_groups(nodes[0], eir.candidate_positions(
            grid, nodes, nodes[0])))
        b = len(eir.enumerate_groups(nodes[1], eir.candidate_positions(
            grid, nodes, nodes[1])))
        assert raw_space_size(grid, nodes) == a * b
