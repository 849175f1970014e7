"""Plain-text rendering of grids, heat maps and EIR designs.

Everything the paper shows as a colour figure has a text analogue here:
heat maps print per-tile numbers (Figure 4), and design maps print the
tile roles — ``C`` for a cache bank, letters for its EIR group members
(Figure 7's colour coding), ``.`` for plain PE tiles.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.equinox import EquiNoxDesign
from ..core.grid import Grid


def heatmap_text(
    heat: np.ndarray,
    grid: Grid,
    marked: Sequence[int] = (),
) -> str:
    """Render a per-node array as a grid of numbers.

    ``marked`` nodes (typically the CBs) get a ``*`` suffix, like the
    circled nodes in the paper's figures.
    """
    flat = np.asarray(heat).reshape(-1)
    if flat.size != grid.size:
        raise ValueError(
            f"heat array has {flat.size} entries for a {grid.size}-tile grid"
        )
    marked_set = set(marked)
    lines = []
    for y in range(grid.height):
        cells = []
        for x in range(grid.width):
            node = grid.node(x, y)
            suffix = "*" if node in marked_set else " "
            cells.append(f"{flat[node]:5.2f}{suffix}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def design_map(design: EquiNoxDesign) -> str:
    """Render an EquiNox design as a tile map (Figure 7, in ASCII).

    Each CB is shown as an upper-case letter and its EIRs as the same
    letter in lower case; ``.`` marks ordinary PE tiles.
    """
    grid = design.grid
    symbol: Dict[int, str] = {}
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for index, group in enumerate(design.eir_design.groups):
        letter = letters[index % len(letters)]
        symbol[group.cb] = letter
        for eir in group.nodes:
            symbol[eir] = letter.lower()
    lines = []
    for y in range(grid.height):
        row = [
            symbol.get(grid.node(x, y), ".") for x in range(grid.width)
        ]
        lines.append(" ".join(row))
    legend = (
        "upper case = cache bank, lower case = its EIRs, . = PE tile"
    )
    return "\n".join(lines) + "\n" + legend

