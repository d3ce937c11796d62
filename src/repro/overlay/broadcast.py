"""Ring-broadcast bookkeeping.

The dissemination rule itself is one line — *on first receipt, forward
to the successor on every ring* — but making it freerider-checkable
requires state: which messages were seen, which predecessor delivered
which copy, and who still owes us one. :class:`BroadcastState` keeps
that per-node, per-domain state as one small int per message, a
bitmask over the ring edges that delivered it; the misbehaviour
verdicts themselves are produced by :mod:`repro.core.monitor`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

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
    §IV-C, check 2), so receipts are the simulator's largest data. Each
    one is a single int, a bitmask over the :data:`CopyKey` of every
    ring edge that delivered a copy (a self-originated first copy sets
    no bit); over at most eight edges it is one of CPython's cached
    small ints, so no object is allocated for it. Each key is interned
    to its bit on first use and keeps it for the life of the state, so
    a later copy ORs one bit into the mask. The first-copy instants
    live in one ``array('d')`` in the records' insertion order. A copy
    over an edge whose bit is already set is a replay; those alone are
    listed beside the masks, so copy counts stay exact.
    """

    __slots__ = ("_records", "_bits", "_seen_at", "_replays")

    def __init__(self) -> None:
        self._records: Dict[int, int] = {}
        self._bits: Dict[CopyKey, int] = {}
        self._seen_at = array("d")
        self._replays: Dict[int, List[CopyKey]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._records

    def _intern(self, key: CopyKey) -> int:
        """Give a ring edge seen for the first time the next bit."""
        bit = self._bits[key] = 1 << len(self._bits)
        return bit

    def on_receive(self, msg_id: int, from_key: "Optional[CopyKey]", now: float) -> int:
        """Record one received copy and say which it was: the message's
        :data:`FIRST_COPY` (truthy), a :data:`LATER_COPY` (falsy) or a
        :data:`REPLAYED_COPY` — a later copy over a ring edge that had
        already delivered one (check 2's replay).

        ``from_key`` is ``None`` for self-originated messages (a node
        "receives" its own broadcast when it initiates it).
        """
        records = self._records
        mask = records.get(msg_id)
        bit = 0 if from_key is None else self._bits.get(from_key) or self._intern(from_key)
        if mask is None:
            records[msg_id] = bit
            self._seen_at.append(now)
            return FIRST_COPY
        if not bit:
            return LATER_COPY
        if mask & bit:
            self._replays.setdefault(msg_id, []).append(from_key)
            return REPLAYED_COPY
        records[msg_id] = mask | bit
        return LATER_COPY

    def copies_from(self, msg_id: int, from_key: CopyKey) -> int:
        mask = self._records.get(msg_id)
        if mask is None or not mask & self._bits.get(from_key, 0):
            return 0
        return 1 + self._replays.get(msg_id, ()).count(from_key)

    def missing_predecessors(self, msg_id: int, expected: "Set[CopyKey]") -> Set[CopyKey]:
        """Expected (predecessor, ring) pairs that never delivered a copy.

        The paper's check 2: *"for each message, a node expects to
        receive a copy from each of its direct predecessors"*.
        """
        mask = self._records.get(msg_id)
        if mask is None:
            return set(expected)
        bits = self._bits
        return {key for key in expected if not mask & bits.get(key, 0)}

    def forget_before(self, horizon: float) -> int:
        """Garbage-collect records first seen before ``horizon``.

        Long simulations would otherwise grow memory without bound;
        returns the number of records dropped.
        """
        records, seen_at = self._records, self._seen_at
        stale = [msg_id for msg_id, at in zip(records, seen_at) if at < horizon]
        if stale:
            self._seen_at = array("d", (at for at in seen_at if at >= horizon))
            replays = self._replays
            for msg_id in stale:
                del records[msg_id]
                if replays:
                    replays.pop(msg_id, None)
        return len(stale)
