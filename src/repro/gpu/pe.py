"""Processing element (SM) model.

A PE is a memory-instruction source with finite MSHRs: it issues up to
one memory instruction per cycle according to its workload generator,
stalls when its MSHRs are full, and retires an instruction when the
matching reply returns.  A PE is *done* when its instruction quota is
exhausted and every outstanding reply has arrived — execution time is
the cycle the last PE finishes.

Inter-PE communication is (deliberately) absent: throughput processors
exhibit almost none (paper section 2.1).
"""

from __future__ import annotations

from typing import List, Optional

from ..noc.types import PacketType
from ..workloads.generator import RequestGenerator
from ..workloads.profiles import WorkloadProfile
from .transaction import Transaction

DEFAULT_MSHRS = 32


class ProcessingElement:
    """One SM: issues memory instructions, tracks outstanding replies."""

    def __init__(
        self,
        node: int,
        profile: WorkloadProfile,
        num_cbs: int,
        quota: int,
        seed: int,
        pe_index: int,
        mshrs: int = DEFAULT_MSHRS,
    ) -> None:
        self.node = node
        self.profile = profile
        self.quota = quota
        self.remaining = quota
        self.outstanding = 0
        self.mshrs = mshrs
        self.generator = RequestGenerator(profile, num_cbs, seed, pe_index)
        self.finished_cycle: Optional[int] = None
        self.stall_cycles = 0  # cycles blocked on full MSHRs or dependencies
        self._issued = 0
        self._stash = None  # generated request waiting on a dependency
        self._last: Optional[Transaction] = None  # most recently issued

    # ------------------------------------------------------------------
    def try_issue(self, cycle: int, tid: int,
                  cb_nodes: List[int]) -> Optional[Transaction]:
        """Maybe issue one memory instruction this cycle."""
        if self.remaining <= 0:
            return None
        if self.outstanding >= self.mshrs:
            self.stall_cycles += 1
            return None
        if self._stash is not None:
            request = self._stash
        else:
            request = self.generator.maybe_issue()
        if request is None:
            return None
        if request.dependent and self._last is not None and (
            self._last.completed is None
        ):
            # Dependent instruction: serialise on the previous reply.
            self._stash = request
            self.stall_cycles += 1
            return None
        self._stash = None
        self.remaining -= 1
        self.outstanding += 1
        self._issued += 1
        transaction = Transaction(
            tid=tid,
            pe=self.node,
            cb=cb_nodes[request.cb_index],
            is_read=request.is_read,
            row_hit=request.row_hit,
            issued=cycle,
        )
        self._last = transaction
        return transaction

    def receive_reply(self, transaction: Transaction, cycle: int) -> None:
        if transaction.pe != self.node:
            raise ValueError("reply delivered to the wrong PE")
        transaction.completed = cycle
        self.outstanding -= 1
        if self.outstanding < 0:
            raise RuntimeError("PE outstanding count went negative")
        if self.done and self.finished_cycle is None:
            self.finished_cycle = cycle

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.remaining == 0 and self.outstanding == 0

    @property
    def issued(self) -> int:
        return self._issued

    @staticmethod
    def request_type(transaction: Transaction) -> PacketType:
        return (
            PacketType.READ_REQUEST
            if transaction.is_read
            else PacketType.WRITE_REQUEST
        )
