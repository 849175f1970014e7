"""Tests for the text renderers."""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.harness import cache
from repro.harness.render import design_map, heatmap_text


class TestHeatmap:
    def test_shape_and_marks(self):
        grid = Grid(4)
        heat = np.arange(16, dtype=float)
        text = heatmap_text(heat, grid, marked=[0, 15])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith(" 0.00*")
        assert lines[3].rstrip().endswith("15.00*")

    def test_accepts_2d(self):
        grid = Grid(4)
        heat = np.zeros((4, 4))
        assert heatmap_text(heat, grid).count("\n") == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            heatmap_text(np.zeros(9), Grid(4))


class TestDesignMap:
    def test_letters_match_groups(self):
        design = cache.equinox_design(8, 8, iterations_per_level=20, seed=0)
        text = design_map(design)
        grid_lines = text.splitlines()[:-1]
        assert len(grid_lines) == 8
        flat = "".join(grid_lines).replace(" ", "")
        # Eight CBs -> letters A..H present exactly once each.
        for letter in "ABCDEFGH":
            assert flat.count(letter) == 1
        # Lower-case EIR letters match the group sizes.
        for index, group in enumerate(design.eir_design.groups):
            letter = "ABCDEFGH"[index].lower()
            assert flat.count(letter) == len(group)

    def test_pe_tiles_dotted(self):
        design = cache.equinox_design(8, 8, iterations_per_level=20, seed=0)
        flat = "".join(design_map(design).splitlines()[:-1]).replace(" ", "")
        occupied = 8 + design.num_eirs
        assert flat.count(".") == 64 - occupied

