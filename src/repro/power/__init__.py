"""Energy and area models (the DSENT-equivalent substrate)."""

from .area import (
    AreaBreakdown,
    AreaParams,
    AreaReport,
    fabric_area,
    network_area,
)
from .energy import (
    EnergyBreakdown,
    EnergyParams,
    EnergyReport,
    fabric_energy,
    network_energy,
)

__all__ = [
    "AreaBreakdown",
    "AreaParams",
    "AreaReport",
    "fabric_area",
    "network_area",
    "EnergyBreakdown",
    "EnergyParams",
    "EnergyReport",
    "fabric_energy",
    "network_energy",
]
