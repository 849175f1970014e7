"""Statistics collected by a network: events, latency, heat maps.

Energy modelling consumes the raw event counters; Figure 4 consumes the
per-router residence numbers; Figure 10 consumes the per-type latency
decomposition (queuing vs non-queuing, where non-queuing is the
zero-load latency of the packet's path and queuing is everything above
it, including time spent waiting in the NI source queue).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import numpy as np

from .types import Packet, PacketType


class LatencyAccumulator:
    """Running latency sums for one packet type.

    ``clamped`` counts samples whose modelled zero-load latency exceeded
    the measured total (clamped to keep queuing non-negative).  A
    non-zero count means the zero-load model overestimates some path —
    a bug in the pipeline model, not in the workload — so tests assert
    it stays 0.
    """

    __slots__ = ("count", "total", "queuing", "non_queuing", "clamped")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.queuing = 0
        self.non_queuing = 0
        self.clamped = 0

    def add(self, total: int, non_queuing: int) -> None:
        self.count += 1
        self.total += total
        if non_queuing > total:
            self.clamped += 1
        self.non_queuing += min(non_queuing, total)
        self.queuing += max(total - non_queuing, 0)


class NetworkStats:
    """Event counters and latency records for one physical network."""

    # Counters the telemetry registry exports as end-of-run finals
    # (one ``net.<name>.<counter>`` entry per network per counter).
    TELEMETRY_COUNTERS = (
        "cycles",
        "flits_injected",
        "flits_ejected",
        "packets_created",
        "packets_delivered",
        "bits_delivered",
        "flits_dropped",
        "packets_recovered",
    )

    def __init__(self, num_nodes: int, flit_bytes: int) -> None:
        self.num_nodes = num_nodes
        self.flit_bytes = flit_bytes
        # Energy-relevant event counters.
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.xbar_traversals = 0
        self.vc_allocs = 0
        self.link_hops_onchip = 0
        self.link_hops_interposer = 0
        self.interposer_hop_length = 0.0  # sum of traversed lengths (tile units)
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_created = 0
        self.packets_delivered = 0
        self.bits_delivered = 0
        # Dropped-flit ledger (fault injection).  ``flits_dropped``
        # counts flits that were already counted as injected but were
        # reclaimed off a failed link — it appears in the flit
        # conservation equation.  ``flits_reclaimed`` counts flits
        # cleared from an NI buffer before they were ever injected
        # (bookkeeping only).  ``packets_recovered`` counts packets
        # returned to an NI source queue for re-selection.
        self.flits_dropped = 0
        self.flits_reclaimed = 0
        self.packets_recovered = 0
        # Heat map: per-router flit residence.  An object-path tick adds
        # into the lists (a list element costs a fifth of a numpy scalar
        # ``+=``); the vector engine's batched ``np.add.at`` fills the
        # arrays.  Readers see the sum (:meth:`residence`).
        self.residence_cycles: List[int] = [0] * num_nodes
        self.residence_count: List[int] = [0] * num_nodes
        self.batched_residence_cycles = np.zeros(num_nodes, dtype=np.int64)
        self.batched_residence_count = np.zeros(num_nodes, dtype=np.int64)
        # Latency per packet type.
        self.latency: Dict[PacketType, LatencyAccumulator] = {
            t: LatencyAccumulator() for t in PacketType
        }
        self.cycles = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_delivery(self, packet: Packet, non_queuing: int) -> None:
        self.packets_delivered += 1
        self.bits_delivered += packet.size * self.flit_bytes * 8
        self.latency[packet.ptype].add(packet.latency, non_queuing)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def residence(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-router residence cycles and traversal counts, both paths."""
        return (
            self.batched_residence_cycles + self.residence_cycles,
            self.batched_residence_count + self.residence_count,
        )

    def heatmap(self) -> np.ndarray:
        """Average flit residence cycles per router (Figure 4)."""
        cycles, count = self.residence()
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(
                count > 0, cycles / np.maximum(count, 1), 0.0
            )
        return mean

    def heatmap_variance(self) -> float:
        """Variance of the per-router residence averages (Figure 4)."""
        return float(np.var(self.heatmap()))

    def mean_latency(self) -> float:
        """Mean latency over every delivered packet, all types."""
        count = sum(acc.count for acc in self.latency.values())
        total = sum(acc.total for acc in self.latency.values())
        return total / count if count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """Every counter as plain data, for fingerprinting and tests.

        Two runs of the same (seed, config) must produce bit-identical
        snapshots regardless of process boundaries or cache state; the
        determinism tests and the parallel runner rely on this.
        """
        cycles, count = self.residence()
        return {
            "cycles": self.cycles,
            "buffer_writes": self.buffer_writes,
            "buffer_reads": self.buffer_reads,
            "xbar_traversals": self.xbar_traversals,
            "vc_allocs": self.vc_allocs,
            "link_hops_onchip": self.link_hops_onchip,
            "link_hops_interposer": self.link_hops_interposer,
            "interposer_hop_length": self.interposer_hop_length,
            "flits_injected": self.flits_injected,
            "flits_ejected": self.flits_ejected,
            "packets_created": self.packets_created,
            "packets_delivered": self.packets_delivered,
            "bits_delivered": self.bits_delivered,
            "flits_dropped": self.flits_dropped,
            "flits_reclaimed": self.flits_reclaimed,
            "packets_recovered": self.packets_recovered,
            "residence_cycles": cycles.tolist(),
            "residence_count": count.tolist(),
            "latency": {
                t.name: (acc.count, acc.total, acc.queuing,
                         acc.non_queuing, acc.clamped)
                for t, acc in sorted(self.latency.items())
            },
        }

    def fingerprint(self) -> str:
        """A stable hash of :meth:`snapshot` (hex digest)."""
        payload = json.dumps(self.snapshot(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

