"""(2) VC-Mono [Jang et al., DAC 2015]: VC monopolisation.

A single-network scheme where a router grants all of its VCs to one
message class while no packet of the other class is present at that
router, improving VC utilisation during the request-heavy and
reply-heavy phases of GPU kernels.
"""

from __future__ import annotations

from .base import SchemeConfig


def config() -> SchemeConfig:
    return SchemeConfig(
        name="VC-Mono",
        network_type="single",
        placement_name="diamond",
        monopolize=True,
    )
