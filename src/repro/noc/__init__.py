"""Cycle-based flit-level NoC simulator (the BookSim-equivalent substrate)."""

from .interface import (
    EquiNoxInterface,
    InjectionBuffer,
    MultiPortInterface,
    NetworkInterface,
)
from .diagnostics import (
    audit_networks,
    network_dump,
    oldest_stuck_packet,
    stall_dump,
)
from .network import Network
from .router import Router
from .stats import NetworkStats
from .topology import CmeshEnvelope, CmeshMap, build_cmesh, build_mesh
from .validation import (
    AuditReport,
    NetworkAuditError,
    assert_healthy,
    audit_network,
    check_invariants,
)
from .types import (
    CACHE_LINE_BYTES,
    Flit,
    Packet,
    PacketType,
    packet_bytes,
    packet_flits,
)

__all__ = [
    "EquiNoxInterface",
    "InjectionBuffer",
    "MultiPortInterface",
    "NetworkInterface",
    "Network",
    "Router",
    "NetworkStats",
    "CmeshEnvelope",
    "CmeshMap",
    "build_cmesh",
    "build_mesh",
    "CACHE_LINE_BYTES",
    "Flit",
    "Packet",
    "PacketType",
    "packet_bytes",
    "packet_flits",
    "AuditReport",
    "NetworkAuditError",
    "assert_healthy",
    "audit_networks",
    "audit_network",
    "check_invariants",
    "network_dump",
    "oldest_stuck_packet",
    "stall_dump",
]
