"""JSON (de)serialisation of EquiNox designs.

The design flow for a 16x16 network at the paper's budget (150 MCTS
iterations per level) takes a few seconds of search; persisting the
resulting design lets the scalability benchmarks and downstream users
re-instantiate it in milliseconds, and lets a saved design be diffed
byte for byte.  The format is plain JSON with explicit versioning,
holding everything needed to rebuild the
:class:`~repro.core.equinox.EquiNoxDesign` (the search trace is not
kept — only the committed design and its scores).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from ..physical import interposer
from . import evaluation
from .eir import EirDesign, make_group
from .equinox import EquiNoxDesign
from .grid import Grid
from .placement import PlacementResult

FORMAT_VERSION = 1


def design_to_dict(design: EquiNoxDesign) -> Dict:
    """Reduce a design to a JSON-serialisable dictionary."""
    return {
        "version": FORMAT_VERSION,
        "grid": {"width": design.grid.width, "height": design.grid.height},
        "placement": {
            "name": design.placement.name,
            "nodes": list(design.placement.nodes),
            "penalty": design.placement.penalty,
        },
        "groups": [
            {
                "cb": group.cb,
                "eirs": [
                    {"direction": list(direction), "node": node}
                    for direction, node in group.eirs
                ],
            }
            for group in design.eir_design.groups
        ],
        "evaluation": {
            "raw": design.evaluation.raw,
            "normalized": design.evaluation.normalized,
            "score": design.evaluation.score,
        },
    }


def design_from_dict(data: Dict, strict: bool = True) -> EquiNoxDesign:
    """Rebuild a design from :func:`design_to_dict` output.

    The RDL plan and evaluation are recomputed from the stored
    structure (they are deterministic functions of it); with ``strict``
    the stored evaluation score is cross-checked, which will reject
    files written under non-default evaluation weights.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported design format version {version!r}")
    grid = Grid(data["grid"]["width"], data["grid"]["height"])
    placement = PlacementResult(
        name=data["placement"]["name"],
        nodes=tuple(data["placement"]["nodes"]),
        penalty=data["placement"]["penalty"],
    )
    groups = tuple(
        make_group(
            entry["cb"],
            {
                tuple(e["direction"]): e["node"]
                for e in entry["eirs"]
            },
        )
        for entry in data["groups"]
    )
    eir_design = EirDesign(grid=grid, placement=placement.nodes,
                           groups=groups)
    result = evaluation.evaluate(eir_design)
    stored = data.get("evaluation", {}).get("score")
    if strict and stored is not None and abs(stored - result.score) > 1e-6:
        raise ValueError(
            f"stored evaluation score {stored} does not match recomputed "
            f"{result.score}; file corrupt or evaluation changed"
        )
    return EquiNoxDesign(
        grid=grid,
        placement=placement,
        eir_design=eir_design,
        rdl_plan=interposer.plan_for_design(eir_design),
        evaluation=result,
        search=None,
    )


def save_design(design: EquiNoxDesign, path: Union[str, Path]) -> Path:
    """Write a design to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(design_to_dict(design), indent=2) + "\n")
    return path


def load_design(path: Union[str, Path]) -> EquiNoxDesign:
    """Read a design previously written by :func:`save_design`, strictly
    cross-checking its stored score."""
    return design_from_dict(json.loads(Path(path).read_text()))
