"""(3) Interposer-CMesh [Jerger et al., MICRO 2014].

A single-network scheme augmented with a concentrated mesh whose links
are routed in the interposer: every 2x2 tile block shares one CMesh
router, CMesh links are 256-bit, and traffic travelling 2 hops or more
prefers the overlay.  The CMesh routers have ~2x the ports of a basic
router (4 concentration ports plus mesh ports), which is what drives
this scheme's area and its 32,768-µbump budget (paper sections 6.5-6.6).
"""

from __future__ import annotations

from .base import SchemeConfig


def config() -> SchemeConfig:
    return SchemeConfig(
        name="Interposer-CMesh",
        network_type="single",
        placement_name="diamond",
        cmesh=True,
    )
