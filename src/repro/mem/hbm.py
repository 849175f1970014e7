"""HBM stack timing model (the Ramulator-equivalent substrate).

Each cache bank pairs with one HBM stack (Table 1: 8 stacks, 256 GB/s
each, 4 memory dies per stack).  A stack exposes several pseudo-channels
that serve accesses independently; an access pays a row-activation cost
on a row-buffer miss, a CAS cost, and occupies the channel's data bus
for the line transfer.

What the NoC study needs from the memory model is (a) reply generation
far faster than one injection port can drain — the premise of the paper
— and (b) latency/bandwidth that respond to row locality and queue
depth.  Both emerge from this channel/bus model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..noc.types import CACHE_LINE_BYTES


@dataclass(frozen=True)
class HbmTiming:
    """Stack timing in core cycles (1.126 GHz core clock).

    The defaults approximate HBM2: 256 GB/s per stack shared by eight
    pseudo-channels gives ~28.4 B/cycle per channel, so a 64 B line
    occupies a channel bus for ~2.25 cycles.
    """

    channels: int = 8
    bytes_per_cycle_per_channel: float = 28.4
    t_cas: int = 14          # column access, row already open
    t_row_miss: int = 38     # precharge + activate + column access
    queue_depth: int = 32    # per-channel scheduler window

    @property
    def transfer_cycles(self) -> float:
        return CACHE_LINE_BYTES / self.bytes_per_cycle_per_channel

    @property
    def peak_bytes_per_cycle(self) -> float:
        return self.channels * self.bytes_per_cycle_per_channel


class MemoryAccess:
    """One line access submitted by a cache bank.

    A plain slotted class rather than a dataclass: accesses are the
    highest-volume heap objects of a memory-bound run, and ``__slots__``
    with defaulted dataclass fields would need Python >= 3.10.
    """

    __slots__ = ("token", "is_read", "row_hit", "submit_cycle", "channel",
                 "complete_cycle")

    def __init__(
        self,
        token: object,
        is_read: bool,
        row_hit: bool,
        submit_cycle: int,
    ) -> None:
        self.token = token
        self.is_read = is_read
        self.row_hit = row_hit
        self.submit_cycle = submit_cycle
        # Set by HbmStack.submit and at each completion.
        self.channel = -1
        self.complete_cycle = 0.0


class HbmStack:
    """One HBM stack: per-channel FR-FCFS-approximating scheduling.

    Requests queue per channel; when the channel bus frees, the oldest
    row-hit request is served first (the FR part), else the oldest
    request (the FCFS part).  Row hit/miss is carried on the access (the
    workload profile's row-locality parameter decides it), standing in
    for full address-mapped bank state.
    """

    def __init__(self, timing: Optional[HbmTiming] = None) -> None:
        self.timing = timing or HbmTiming()
        self._queues: List[List[MemoryAccess]] = [
            [] for _ in range(self.timing.channels)
        ]
        self._bus_free: List[float] = [0.0] * self.timing.channels
        self._completions: List[Tuple[float, int, MemoryAccess]] = []
        self._seq = 0
        self._rr = 0
        # Aggregate stats.
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.busy_cycles = 0.0

    # ------------------------------------------------------------------
    def submit(self, access: MemoryAccess) -> None:
        """Queue an access; channel chosen round-robin (address hash)."""
        access.channel = self._rr
        self._rr = (self._rr + 1) % self.timing.channels
        self._queues[access.channel].append(access)
        if access.is_read:
            self.reads += 1
        else:
            self.writes += 1
        if access.row_hit:
            self.row_hits += 1

    def tick(self, cycle: int) -> List[MemoryAccess]:
        """Advance one core cycle; return accesses completing now."""
        timing = self.timing
        for ch, queue in enumerate(self._queues):
            if not queue or self._bus_free[ch] > cycle:
                continue
            # FR-FCFS within the scheduler window: first ready row hit,
            # else the oldest request.
            window = queue[: timing.queue_depth]
            pick = next((a for a in window if a.row_hit), window[0])
            queue.remove(pick)
            access_latency = timing.t_cas if pick.row_hit else timing.t_row_miss
            transfer = timing.transfer_cycles
            start = max(self._bus_free[ch], float(cycle))
            pick.complete_cycle = start + access_latency + transfer
            self._bus_free[ch] = start + transfer
            self.busy_cycles += transfer
            self._seq += 1
            heapq.heappush(
                self._completions, (pick.complete_cycle, self._seq, pick)
            )
        done: List[MemoryAccess] = []
        while self._completions and self._completions[0][0] <= cycle:
            done.append(heapq.heappop(self._completions)[2])
        return done

    def queue_depth(self) -> int:
        """Accesses waiting in the per-channel scheduler queues.

        Excludes in-flight completions: this is the backlog the FR-FCFS
        front-end still has to serve — the telemetry signal that shows a
        reply burst building up behind a CB.
        """
        return sum(len(q) for q in self._queues)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues) + len(self._completions)

    def idle(self) -> bool:
        return self.pending() == 0

    def utilization(self, cycles: int) -> float:
        """Fraction of aggregate bus-cycles spent transferring data."""
        if cycles <= 0:
            return 0.0
        return self.busy_cycles / (cycles * self.timing.channels)
