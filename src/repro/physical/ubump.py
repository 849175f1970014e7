"""Micro-bump (µbump) count and area accounting (paper section 6.6).

Every interposer wire needs a µbump at each die attachment point.  With
the paper's 40 µm-pitch µbumps, a 128-bit bi-directional link consumes
about 0.34 mm^2 of die area.  The paper's headline comparison:

* Interposer-CMesh: 128 uni-directional 256-bit links, one µbump per
  wire per die crossing -> 32,768 µbumps.
* EquiNox: 24 uni-directional 128-bit links, two µbumps per wire (down
  to the interposer and back up) -> 6,144 µbumps (-81.25%).
"""

from __future__ import annotations

from dataclasses import dataclass

UBUMP_PITCH_UM = 40.0
"""µbump pitch (µm), per De Vos et al. [22]."""


def ubump_area_mm2(num_bumps: int) -> float:
    """Die area consumed by ``num_bumps`` µbumps at the 40 µm pitch."""
    if num_bumps < 0:
        raise ValueError("bump count must be non-negative")
    return num_bumps * (UBUMP_PITCH_UM * 1e-3) ** 2


@dataclass(frozen=True)
class UbumpBudget:
    """µbump accounting for one scheme's interposer links."""

    scheme: str
    num_links: int
    bits_per_link: int
    bumps_per_wire: int

    @property
    def num_bumps(self) -> int:
        return self.num_links * self.bits_per_link * self.bumps_per_wire

    @property
    def area_mm2(self) -> float:
        return ubump_area_mm2(self.num_bumps)


def interposer_cmesh_budget() -> UbumpBudget:
    """The paper's Interposer-CMesh configuration: 128 uni-directional
    256-bit links (32,768 µbumps)."""
    return UbumpBudget(
        scheme="interposer-cmesh",
        num_links=128,
        bits_per_link=256,
        bumps_per_wire=1,
    )


def equinox_budget(num_eirs: int = 24) -> UbumpBudget:
    """EquiNox's budget: one uni-directional link per (CB, EIR) pair.

    CB->EIR links carry injection traffic only, so each connection is a
    single uni-directional 128-bit link (24 of them in the paper's 8x8
    design, i.e. 3 EIRs per CB on average after boundary effects), and
    every wire dives from the processor die into the interposer and
    surfaces again, so it needs two µbumps.
    """
    return UbumpBudget(
        scheme="equinox",
        num_links=num_eirs,
        bits_per_link=128,
        bumps_per_wire=2,
    )


def budget_for_design(design) -> UbumpBudget:
    """µbump budget for a concrete :class:`~repro.core.eir.EirDesign`."""
    return equinox_budget(num_eirs=len(design.links()))
