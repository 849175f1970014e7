"""Deterministic per-PE request stream generation.

Each PE owns a :class:`RequestGenerator` seeded from the global seed and
its node id, so a run is bit-reproducible regardless of PE iteration
order.  Burstiness is modelled as a two-state (active/idle) Markov
process whose duty cycle keeps the *mean* issue probability equal to
the profile's intensity.
"""

from __future__ import annotations

import random
from typing import Optional

from .profiles import WorkloadProfile

BURST_PERIOD = 64
"""Mean cycles between activity-phase switches."""


class GeneratedRequest:
    """One memory instruction a PE wants to issue.

    ``dependent`` marks instructions that must wait for the previously
    issued instruction's reply.
    """

    __slots__ = ("is_read", "cb_index", "row_hit", "dependent")

    def __init__(
        self,
        is_read: bool,
        cb_index: int,
        row_hit: bool,
        dependent: bool = False,
    ) -> None:
        self.is_read = is_read
        self.cb_index = cb_index
        self.row_hit = row_hit
        self.dependent = dependent


class RequestGenerator:
    """Per-PE stochastic request source driven by a workload profile."""

    def __init__(
        self,
        profile: WorkloadProfile,
        num_cbs: int,
        seed: int,
        pe_index: int,
    ) -> None:
        self.profile = profile
        self.num_cbs = num_cbs
        self._rng = random.Random((seed << 20) ^ (pe_index * 2654435761 % 2**31))
        self._active = True
        # With burstiness b the active-phase issue rate is boosted and
        # the duty cycle reduced so the long-run mean stays `intensity`.
        b = profile.burstiness
        self._duty = 1.0 - 0.7 * b
        boosted = profile.intensity / self._duty
        self._active_rate = min(1.0, boosted)
        self._cb_rr = self._rng.randrange(num_cbs)

    def maybe_issue(self) -> Optional[GeneratedRequest]:
        """Roll the dice for this cycle; return a request or ``None``."""
        rng = self._rng
        if rng.random() < 1.0 / BURST_PERIOD:  # phase switch
            self._active = rng.random() < self._duty
        if not self._active or rng.random() >= self._active_rate:
            return None
        profile = self.profile
        is_read = rng.random() < profile.read_fraction
        # Fine-grained address interleaving spreads lines uniformly
        # across cache banks; a rotating pointer models the stream.
        self._cb_rr = (self._cb_rr + 1 + rng.randrange(2)) % self.num_cbs
        row_hit = rng.random() < profile.row_hit_rate
        dependent = rng.random() < profile.dependency
        return GeneratedRequest(
            is_read=is_read,
            cb_index=self._cb_rr,
            row_hit=row_hit,
            dependent=dependent,
        )
