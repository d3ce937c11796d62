"""Ring-broadcast bookkeeping.

The dissemination rule itself is one line — *on first receipt, forward
to the successor on every ring* — but making it freerider-checkable
requires state: which messages were seen, which predecessor delivered
which copy, and who still owes us one. :class:`BroadcastState` keeps
that per-node, per-domain state; the misbehaviour verdicts themselves
are produced by :mod:`repro.core.monitor`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

__all__ = ["CopyKey", "BroadcastState", "FIRST_COPY", "LATER_COPY", "REPLAYED_COPY"]


#: A copy's provenance: (predecessor node id, ring index). The paper's
#: "once and only once" rule applies per ring — a node that precedes us
#: on two rings legitimately delivers two copies, one per ring. The
#: receive path takes it from :meth:`RingTopology.predecessor_key
#: <repro.overlay.rings.RingTopology.predecessor_key>`, so every copy
#: over one ring edge carries the same tuple.
CopyKey = Tuple[int, int]

#: What :meth:`BroadcastState.on_receive` answers for one copy.
LATER_COPY = 0
FIRST_COPY = 1
REPLAYED_COPY = 2


class BroadcastState:
    """Duplicate suppression + per-predecessor receipt accounting.

    A node remembers every broadcast it has seen in every domain (paper
    §IV-C, check 2), so the receipt is the simulator's largest
    population of objects. Each one is a single tuple
    ``(first_seen_at, key, key, ...)``: the time of the first copy, then
    the :data:`CopyKey` of every copy a predecessor delivered, in
    arrival order (a self-originated first copy adds no key). A copy
    count is how often its key occurs; the time can never equal a key.
    """

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._records

    def on_receive(self, msg_id: int, from_key: "Optional[CopyKey]", now: float) -> int:
        """Record one received copy and say which it was: the message's
        :data:`FIRST_COPY` (truthy), a :data:`LATER_COPY` (falsy) or a
        :data:`REPLAYED_COPY` — a later copy over a ring edge that had
        already delivered one (check 2's replay).

        ``from_key`` is ``None`` for self-originated messages (a node
        "receives" its own broadcast when it initiates it).
        """
        records = self._records
        record = records.get(msg_id)
        if record is None:
            records[msg_id] = (now,) if from_key is None else (now, from_key)
            return FIRST_COPY
        if from_key is None:
            return LATER_COPY
        records[msg_id] = record + (from_key,)
        return REPLAYED_COPY if from_key in record else LATER_COPY

    def copies_from(self, msg_id: int, from_key: CopyKey) -> int:
        record = self._records.get(msg_id)
        return 0 if record is None else record.count(from_key)

    def missing_predecessors(self, msg_id: int, expected: "Set[CopyKey]") -> Set[CopyKey]:
        """Expected (predecessor, ring) pairs that never delivered a copy.

        The paper's check 2: *"for each message, a node expects to
        receive a copy from each of its direct predecessors"*.
        """
        record = self._records.get(msg_id)
        if record is None:
            return set(expected)
        return {key for key in expected if key not in record}

    def forget_before(self, horizon: float) -> int:
        """Garbage-collect records first seen before ``horizon``.

        Long simulations would otherwise grow memory without bound;
        returns the number of records dropped.
        """
        records = self._records
        stale = [msg_id for msg_id, record in records.items() if record[0] < horizon]
        for msg_id in stale:
            del records[msg_id]
        return len(stale)
