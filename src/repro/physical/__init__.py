"""Physical-design substrate: RDL geometry, layer planning, µbumps."""

from .geometry import Segment, count_crossings, crossing_pairs, segments_cross
from .interposer import RdlPlan, plan_for_design, plan_links
from .ubump import (
    UbumpBudget,
    budget_for_design,
    equinox_budget,
    interposer_cmesh_budget,
    ubump_area_mm2,
)

__all__ = [
    "Segment",
    "count_crossings",
    "crossing_pairs",
    "segments_cross",
    "RdlPlan",
    "plan_for_design",
    "plan_links",
    "UbumpBudget",
    "budget_for_design",
    "equinox_budget",
    "interposer_cmesh_budget",
    "ubump_area_mm2",
]
