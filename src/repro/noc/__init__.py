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
from .topology import CmeshEnvelope, CmeshMap, build_cmesh
from .validation import (
    AuditReport,
    NetworkAuditError,
    audit_network,
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
    "CACHE_LINE_BYTES",
    "Flit",
    "Packet",
    "PacketType",
    "packet_bytes",
    "packet_flits",
    "AuditReport",
    "NetworkAuditError",
    "audit_networks",
    "audit_network",
    "network_dump",
    "oldest_stuck_packet",
    "stall_dump",
]
