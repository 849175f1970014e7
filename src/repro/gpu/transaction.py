"""Memory transactions: the unit of work flowing PE -> CB -> memory -> PE."""

from __future__ import annotations

from typing import Optional


class Transaction:
    """One memory instruction's lifetime across the system.

    Timestamps are in base (PE-clock) cycles; per-network packet
    latencies are recorded by the networks themselves.
    """

    __slots__ = (
        "tid",
        "pe",
        "cb",
        "is_read",
        "row_hit",
        "issued",
        "accepted",
        "reply_sent",
        "completed",
        "l2_hit",
    )

    def __init__(
        self,
        tid: int,
        pe: int,
        cb: int,
        is_read: bool,
        row_hit: bool,
        issued: int,
    ) -> None:
        self.tid = tid
        self.pe = pe
        self.cb = cb
        self.is_read = is_read
        self.row_hit = row_hit
        self.issued = issued
        self.accepted: Optional[int] = None    # CB popped the request
        self.reply_sent: Optional[int] = None  # CB enqueued the reply
        self.completed: Optional[int] = None   # PE received the reply
        self.l2_hit: Optional[bool] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        op = "R" if self.is_read else "W"
        return f"Txn({self.tid} {op} pe{self.pe}->cb{self.cb})"
