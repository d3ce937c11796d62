"""Ring-broadcast bookkeeping.

The dissemination rule itself is one line — *on first receipt, forward
to the successor on every ring* — but making it freerider-checkable
requires state: which messages were seen, which predecessor delivered
which copy, and who still owes us one. :class:`BroadcastState` keeps
that per-node, per-domain state; the misbehaviour verdicts themselves
are produced by :mod:`repro.core.monitor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["CopyKey", "MessageRecord", "BroadcastState"]


#: A copy's provenance: (predecessor node id, ring index). The paper's
#: "once and only once" rule applies per ring — a node that precedes us
#: on two rings legitimately delivers two copies, one per ring.
CopyKey = Tuple[int, int]


@dataclass(slots=True)
class MessageRecord:
    """Receipt bookkeeping for one broadcast message id."""

    first_seen_at: float
    #: Copies received per (predecessor, ring) pair.
    copies_from: Dict[CopyKey, int] = field(default_factory=dict)
    delivered: bool = False


class BroadcastState:
    """Duplicate suppression + per-predecessor receipt accounting."""

    def __init__(self) -> None:
        self._records: Dict[int, MessageRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._records

    def on_receive(self, msg_id: int, from_key: "Optional[CopyKey]", now: float) -> bool:
        """Record one received copy; True iff this is the first copy.

        ``from_key`` is ``None`` for self-originated messages (a node
        "receives" its own broadcast when it initiates it).
        """
        record = self._records.get(msg_id)
        is_new = record is None
        if record is None:
            record = MessageRecord(first_seen_at=now)
            self._records[msg_id] = record
        if from_key is not None:
            record.copies_from[from_key] = record.copies_from.get(from_key, 0) + 1
        return is_new

    def copies_from(self, msg_id: int, from_key: CopyKey) -> int:
        record = self._records.get(msg_id)
        return record.copies_from.get(from_key, 0) if record else 0

    def record(self, msg_id: int) -> "Optional[MessageRecord]":
        return self._records.get(msg_id)

    def missing_predecessors(self, msg_id: int, expected: "Set[CopyKey]") -> Set[CopyKey]:
        """Expected (predecessor, ring) pairs that never delivered a copy.

        The paper's check 2: *"for each message, a node expects to
        receive a copy from each of its direct predecessors"*.
        """
        record = self._records.get(msg_id)
        if record is None:
            return set(expected)
        return {key for key in expected if record.copies_from.get(key, 0) == 0}

    def replaying_predecessors(self, msg_id: int) -> Set[CopyKey]:
        """(Predecessor, ring) pairs that delivered the same message more
        than once (a potential replay attack, paper footnote 7)."""
        record = self._records.get(msg_id)
        if record is None:
            return set()
        return {key for key, n in record.copies_from.items() if n > 1}

    def seen_ids(self) -> "List[int]":
        return list(self._records)

    def forget_before(self, horizon: float) -> int:
        """Garbage-collect records first seen before ``horizon``.

        Long simulations would otherwise grow memory without bound;
        returns the number of records dropped.
        """
        stale = [m for m, rec in self._records.items() if rec.first_seen_at < horizon]
        for msg_id in stale:
            del self._records[msg_id]
        return len(stale)
