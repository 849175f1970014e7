"""Memory controller: the FR-FCFS front-end between a CB and its stack.

Each cache bank owns one controller (Table 1: 8 MCs, FR-FCFS), which in
this model simply relays line accesses into the stack and collects
completions, adding a fixed controller pipeline latency on each side.
The PHY between the MC and the stack is folded into that constant.
"""

from __future__ import annotations

from typing import List

from .hbm import HbmStack, MemoryAccess

MC_PIPELINE_CYCLES = 4
"""Controller + PHY crossing latency per direction."""


class MemoryController:
    """One FR-FCFS memory controller fronting one HBM stack."""

    def __init__(self) -> None:
        self.stack = HbmStack()
        self._inbound: List[MemoryAccess] = []  # waiting out the pipeline
        self._outbound: List[MemoryAccess] = []

    def submit(self, token: object, is_read: bool, row_hit: bool,
               cycle: int) -> None:
        """Accept a line access from the cache bank."""
        access = MemoryAccess(
            token=token, is_read=is_read, row_hit=row_hit,
            submit_cycle=cycle,
        )
        access.complete_cycle = cycle + MC_PIPELINE_CYCLES  # enters stack then
        self._inbound.append(access)

    def tick(self, cycle: int) -> List[MemoryAccess]:
        """Advance one cycle; return accesses whose data is back at the CB."""
        inbound = self._inbound
        if inbound and inbound[0].complete_cycle <= cycle:
            for access in _take_due(inbound, cycle):
                self.stack.submit(access)
        for access in self.stack.tick(cycle):
            access.complete_cycle = cycle + MC_PIPELINE_CYCLES
            self._outbound.append(access)
        outbound = self._outbound
        if not outbound or outbound[0].complete_cycle > cycle:
            return []
        return _take_due(outbound, cycle)

    def queue_depth(self) -> int:
        """Accesses queued ahead of service (pipeline + stack queues)."""
        return len(self._inbound) + self.stack.queue_depth()

    def pending(self) -> int:
        return len(self._inbound) + len(self._outbound) + self.stack.pending()

    def idle(self) -> bool:
        return self.pending() == 0


def _take_due(pipeline: List[MemoryAccess], cycle: int) -> List[MemoryAccess]:
    """Remove and return the accesses of ``pipeline`` due by ``cycle``.

    A pipeline is in due order (one cycle's entries are all due the
    same fixed latency later), so they are a prefix.
    """
    k = 0
    while k < len(pipeline) and pipeline[k].complete_cycle <= cycle:
        k += 1
    due = pipeline[:k]
    del pipeline[:k]
    return due
