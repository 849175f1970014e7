"""EquiNox core: placement, hot zones, EIR selection and the design flow."""

from .equinox import EquiNoxDesign, design_equinox, design_from_groups
from .eir import EirDesign, EirGroup, make_group
from .grid import Grid
from .placement import PlacementResult, by_name as placement_by_name

__all__ = [
    "EquiNoxDesign",
    "design_equinox",
    "design_from_groups",
    "EirDesign",
    "EirGroup",
    "make_group",
    "Grid",
    "PlacementResult",
    "placement_by_name",
]
