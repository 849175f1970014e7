"""(5) DA2Mesh [Kim et al., ICCD 2012].

A separate-network scheme whose reply network is split into eight
narrow subnets with 1/8 flit width, clocked at 2.5x the base frequency
(the paper's configuration of this comparison point).  The narrow flits
raise serialisation latency for data packets — the effect the paper
identifies as limiting DA2Mesh's average gain.
"""

from __future__ import annotations

from .base import SchemeConfig


def config() -> SchemeConfig:
    return SchemeConfig(
        name="DA2Mesh",
        network_type="separate",
        placement_name="diamond",
        da2mesh=True,
    )
