"""The end-to-end EquiNox design flow (paper section 4).

``design_equinox`` chains the three stages:

1. contention-aware CB placement (scored N-Queen),
2. EIR selection by MCTS,
3. physical validation (RDL plan: crossings, layers, wire lengths),

and returns everything the architecture layer needs to instantiate an
EquiNox system: the placement, the EIR groups and the interposer plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..physical import interposer
from . import evaluation, placement as placement_mod
from .eir import EirDesign
from .grid import Grid
from .mcts import EirSearch, SearchConfig, SearchResult


@dataclass(frozen=True)
class EquiNoxDesign:
    """A complete EquiNox configuration for one network size."""

    grid: Grid
    placement: placement_mod.PlacementResult
    eir_design: EirDesign
    rdl_plan: interposer.RdlPlan
    evaluation: evaluation.EvalResult
    search: Optional[SearchResult] = None

    @property
    def num_eirs(self) -> int:
        return len(self.eir_design.links())

    def summary(self) -> str:
        """Human-readable one-screen description of the design."""
        lines = [
            f"EquiNox design on {self.grid.width}x{self.grid.height}",
            f"  CB placement ({self.placement.name}, penalty "
            f"{self.placement.penalty}): {sorted(self.placement.nodes)}",
            f"  EIRs: {self.num_eirs} across {len(self.eir_design.groups)} groups",
            f"  RDL crossings: {self.rdl_plan.num_crossings} "
            f"-> {self.rdl_plan.num_layers} layer(s)",
            f"  total interposer wire: {self.rdl_plan.total_length_mm:.1f} mm"
            f" (repeaters needed: {self.rdl_plan.needs_repeaters()})",
            f"  evaluation score: {self.evaluation.score:.4f}",
        ]
        if self.search is not None and self.search.eval_cache_lookups:
            lines.append(
                f"  MCTS eval cache: {self.search.eval_cache_hits}/"
                f"{self.search.eval_cache_lookups} hits "
                f"({self.search.eval_cache_hit_rate:.1%}), "
                f"{self.search.designs_evaluated} unique designs scored"
            )
        for group in self.eir_design.groups:
            x, y = self.grid.coord(group.cb)
            eirs = [self.grid.coord(n) for n in group.nodes]
            lines.append(f"    CB ({x},{y}) -> EIRs {eirs}")
        return "\n".join(lines)


def design_equinox(
    width: int,
    num_cbs: int = 8,
    search_config: Optional[SearchConfig] = None,
    placement_nodes: Optional[Sequence[int]] = None,
) -> EquiNoxDesign:
    """Run the full EquiNox design flow for a ``width x width`` mesh.

    Parameters
    ----------
    width:
        Mesh dimension (the paper uses 8, 12 and 16).
    num_cbs:
        Number of cache banks / memory controllers (8 in the paper).
    search_config:
        MCTS budget, seed and weights; defaults are adequate for 8x8.
    placement_nodes:
        Override the CB placement (used by ablations); when given, the
        N-Queen stage is skipped and the nodes are scored as-is.
    """
    grid = Grid(width)
    if placement_nodes is not None:
        from .hotzone import placement_penalty

        cb_placement = placement_mod.PlacementResult(
            name="custom",
            nodes=tuple(placement_nodes),
            penalty=placement_penalty(grid, tuple(placement_nodes)),
        )
    else:
        cb_placement = placement_mod.nqueen_best(grid, num_cbs)
    search = EirSearch(grid, cb_placement.nodes, search_config)
    result = search.run()
    plan = interposer.plan_for_design(result.design)
    return EquiNoxDesign(
        grid=grid,
        placement=cb_placement,
        eir_design=result.design,
        rdl_plan=plan,
        evaluation=result.evaluation,
        search=result,
    )


def design_from_groups(
    grid: Grid,
    placement_result: placement_mod.PlacementResult,
    eir_design: EirDesign,
) -> EquiNoxDesign:
    """Wrap a hand-built EIR design (used by tests and ablations)."""
    plan = interposer.plan_for_design(eir_design)
    return EquiNoxDesign(
        grid=grid,
        placement=placement_result,
        eir_design=eir_design,
        rdl_plan=plan,
        evaluation=evaluation.evaluate(eir_design),
        search=None,
    )
