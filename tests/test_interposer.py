"""Unit tests for RDL planning and µbump accounting."""

import pytest

from repro.core import placement
from repro.core.grid import Grid
from repro.physical import interposer, ubump


class TestRdlPlan:
    def test_no_links_empty_plan(self):
        plan = interposer.plan_links(Grid(8), [])
        assert plan.num_crossings == 0
        assert plan.num_layers == 0
        assert plan.total_length_mm == 0.0

    def test_parallel_links_one_layer(self):
        grid = Grid(8)
        links = [(grid.node(0, 0), grid.node(2, 0)),
                 (grid.node(0, 2), grid.node(2, 2))]
        plan = interposer.plan_links(grid, links)
        assert plan.num_crossings == 0
        assert plan.num_layers == 1

    def test_crossing_links_two_layers(self):
        grid = Grid(8)
        links = [(grid.node(0, 1), grid.node(2, 1)),
                 (grid.node(1, 0), grid.node(1, 2))]
        plan = interposer.plan_links(grid, links)
        assert plan.num_crossings == 1
        assert plan.num_layers == 2
        # Conflicting links are on different layers.
        i, j = plan.crossings[0]
        assert plan.layer_of[i] != plan.layer_of[j]

    def test_layer_assignment_valid(self):
        grid = Grid(8)
        # A bundle of mutually crossing links through the centre.
        links = [
            (grid.node(0, 3), grid.node(7, 4)),
            (grid.node(3, 0), grid.node(4, 7)),
            (grid.node(0, 4), grid.node(7, 3)),
        ]
        plan = interposer.plan_links(grid, links)
        for i, j in plan.crossings:
            assert plan.layer_of[i] != plan.layer_of[j]

    def test_length_in_mm(self):
        grid = Grid(8)
        plan = interposer.plan_links(grid, [(grid.node(0, 0), grid.node(2, 0))])
        assert plan.total_length_mm == pytest.approx(
            2 * interposer.TILE_PITCH_MM
        )

    def test_repeater_threshold(self):
        grid = Grid(8)
        short = interposer.plan_links(grid, [(grid.node(0, 0), grid.node(2, 0))])
        long = interposer.plan_links(grid, [(grid.node(0, 0), grid.node(7, 0))])
        assert not short.needs_repeaters()
        assert long.needs_repeaters()

    def test_plan_for_design(self):
        grid = Grid(8)
        from repro.core.eir import (
            EirDesign, candidate_positions, enumerate_groups,
        )

        nodes = placement.nqueen_best(grid, 8).nodes
        groups = []
        taken = set()
        for cb in nodes:
            options = enumerate_groups(
                cb, candidate_positions(grid, nodes, cb),
                taken=frozenset(taken), require_full=True,
            )
            groups.append(options[0])
            taken.update(options[0].nodes)
        design = EirDesign(grid=grid, placement=tuple(nodes),
                           groups=tuple(groups))
        plan = interposer.plan_for_design(design)
        assert len(plan.links) == len(design.links())


class TestUbump:
    def test_area_formula(self):
        # 128 wires at 40um pitch: 128 * 0.04mm^2 each side... one bump
        # is (0.04 mm)^2 = 0.0016 mm^2.
        assert ubump.ubump_area_mm2(1) == pytest.approx(0.0016)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ubump.ubump_area_mm2(-1)

    def test_paper_link_area(self):
        """A 128-bit bi-directional link consumes ~0.34 mm^2 less than
        half a percent off the paper's quoted 0.34."""
        assert ubump.ubump_area_mm2(2 * 128) == pytest.approx(0.41, abs=0.08)

    def test_interposer_cmesh_budget_matches_paper(self):
        budget = ubump.interposer_cmesh_budget()
        assert budget.num_bumps == 32768

    def test_equinox_budget_matches_paper(self):
        budget = ubump.equinox_budget(num_eirs=24)
        assert budget.num_bumps == 6144

    def test_saving_is_81_percent(self):
        cmesh = ubump.interposer_cmesh_budget()
        equinox = ubump.equinox_budget(num_eirs=24)
        saving = 1 - equinox.num_bumps / cmesh.num_bumps
        assert saving == pytest.approx(0.8125)

    def test_budget_for_design(self):
        grid = Grid(8)
        from repro.core.eir import make_group, EirDesign

        nodes = (grid.node(3, 3), grid.node(6, 6))
        groups = (
            make_group(nodes[0], {(1, 0): grid.node(5, 3)}),
            make_group(nodes[1], {(-1, 0): grid.node(4, 6)}),
        )
        design = EirDesign(grid=grid, placement=nodes, groups=groups)
        budget = ubump.budget_for_design(design)
        assert budget.num_links == 2
        assert budget.num_bumps == 2 * 128 * 2
