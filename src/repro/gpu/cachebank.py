"""Last-level cache bank (CB) model.

A CB accepts requests ejected from the request network (subject to a
finite transaction buffer — the source of the backpressure the paper's
Figure 10 discusses), serves hits after the L2 pipeline latency, sends
misses to its memory controller, and enqueues replies into its reply-
network NI.  A transaction occupies a buffer slot from acceptance until
its reply packet has begun injection, so a congested reply network
stalls request ejection and the congestion propagates backwards —
the parking-lot effect.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Tuple

from ..mem.controller import MemoryController
from ..noc.types import PacketType
from ..workloads.profiles import WorkloadProfile
from .transaction import Transaction

DEFAULT_CAPACITY = 16
DEFAULT_L2_LATENCY = 12


class CacheBank:
    """One L2 bank + MC + HBM stack behind one NoC node."""

    def __init__(
        self,
        node: int,
        profile: WorkloadProfile,
        fabric: "object",
        seed: int,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.node = node
        self.profile = profile
        self.fabric = fabric
        self.capacity = capacity
        self.l2_latency = DEFAULT_L2_LATENCY
        self.memory = MemoryController()
        self._rng = random.Random((seed << 16) ^ (node * 40503 % 2**31))
        self._ready: List[Tuple[int, int, Transaction]] = []  # (cycle, seq, txn)
        self._seq = 0
        # Replies enqueued to the NI but not yet injecting: (txn, packet).
        self._in_flight: List[Tuple[Transaction, object]] = []
        self.occupancy = 0
        # Stats.
        self.requests_accepted = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.stall_cycles = 0  # cycles a request waited because we were full

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._release_injected()
        self._accept_requests(cycle)
        self._collect_memory(cycle)
        self._emit_replies(cycle)

    # ------------------------------------------------------------------
    def _accept_requests(self, cycle: int) -> None:
        while self.occupancy < self.capacity:
            transaction = self.fabric.pop_request(self.node)
            if transaction is None:
                return
            transaction.accepted = cycle
            self.occupancy += 1
            self.requests_accepted += 1
            hit = self._rng.random() < self.profile.l2_hit_rate
            transaction.l2_hit = hit
            if transaction.is_read:
                if hit:
                    self.l2_hits += 1
                    self._schedule_ready(cycle + self.l2_latency, transaction)
                else:
                    self.l2_misses += 1
                    self.memory.submit(
                        transaction, is_read=True,
                        row_hit=transaction.row_hit, cycle=cycle,
                    )
            else:
                # Writes are absorbed by the write-back L2 and acked after
                # the pipeline latency; a miss also spills a line to
                # memory (posted, consuming stack bandwidth only).
                if hit:
                    self.l2_hits += 1
                else:
                    self.l2_misses += 1
                    self.memory.submit(
                        ("writeback", transaction.tid), is_read=False,
                        row_hit=transaction.row_hit, cycle=cycle,
                    )
                self._schedule_ready(cycle + self.l2_latency, transaction)
        # Count stall pressure: a request was available but no capacity.
        if self.occupancy >= self.capacity:
            self.stall_cycles += 1

    def _schedule_ready(self, ready_cycle: int, transaction: Transaction) -> None:
        self._seq += 1
        heapq.heappush(self._ready, (ready_cycle, self._seq, transaction))

    def _collect_memory(self, cycle: int) -> None:
        for access in self.memory.tick(cycle):
            if isinstance(access.token, Transaction):
                self._schedule_ready(cycle, access.token)
            # Posted writebacks complete silently.

    def _emit_replies(self, cycle: int) -> None:
        while self._ready and self._ready[0][0] <= cycle:
            _, _, transaction = heapq.heappop(self._ready)
            ptype = (
                PacketType.READ_REPLY
                if transaction.is_read
                else PacketType.WRITE_REPLY
            )
            transaction.reply_sent = cycle
            packet = self.fabric.send_reply(
                self.node, transaction.pe, ptype, transaction
            )
            self._in_flight.append((transaction, packet))

    def _release_injected(self) -> None:
        """Free buffer slots of replies that have started injecting."""
        if not self._in_flight:
            return
        keep = []
        for transaction, packet in self._in_flight:
            if packet.injected is not None:
                self.occupancy -= 1
            else:
                keep.append((transaction, packet))
        self._in_flight = keep

    # ------------------------------------------------------------------
    def idle(self) -> bool:
        return (
            self.occupancy == 0
            and not self._ready
            and not self._in_flight
            and self.memory.idle()
        )
