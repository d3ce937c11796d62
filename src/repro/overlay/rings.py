"""Multi-ring virtual topology (the Fireflies-style structure).

Section IV-A: *"nodes are placed on several virtual rings using a hash
function. On each ring, a node has a predecessor node and a successor
node. [...] each time a node receives a message from one of its
predecessors, it forwards it to all its successors."*

Positions follow the paper's rule (Section IV-C): the position of a
node on the i-th ring is the hash of the couple (ID, i). The topology
supports incremental membership changes because joins, splits and
evictions all reshape rings at runtime.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..crypto.hashes import ring_position

__all__ = ["RingTopology"]


class RingTopology:
    """``num_rings`` hash-ordered rings over one set of node ids.

    Membership changes are O(log n) binary searches on per-ring sorted
    position lists; they also re-stitch the per-ring successor and
    predecessor tables around the changed slot, so a neighbour query —
    three per forwarded copy on the data path — is two dict lookups.
    Ties on position (vanishingly rare with 128-bit hashes) are broken
    by node id, so every correct node computes the identical topology
    from the identical view — a prerequisite for the paper's
    "deterministically computed replacement" after an eviction.
    """

    __slots__ = ("num_rings", "_rings", "_members", "_succ", "_pred")

    def __init__(self, node_ids: Iterable[int], num_rings: int) -> None:
        if num_rings < 1:
            raise ValueError("at least one ring is required")
        self.num_rings = num_rings
        self._rings: List[List[Tuple[int, int]]] = [[] for _ in range(num_rings)]
        self._members: Set[int] = set()
        #: ring index -> node id -> successor (None while alone).
        self._succ: Dict[int, Dict[int, Optional[int]]] = {r: {} for r in range(num_rings)}
        #: ring index -> node id -> the predecessor's copy key
        #: ``(predecessor, ring index)``, None while alone: one tuple
        #: per ring edge, shared by every copy received over it.
        self._pred: Dict[int, Dict[int, Optional[Tuple[int, int]]]] = {
            r: {} for r in range(num_rings)
        }
        for node_id in node_ids:
            self.add_node(node_id)

    # -- membership ----------------------------------------------------------
    @property
    def members(self) -> Set[int]:
        return set(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def add_node(self, node_id: int) -> None:
        if node_id in self._members:
            raise ValueError(f"node {node_id} is already on the rings")
        self._members.add(node_id)
        for ring_index in range(self.num_rings):
            ring = self._rings[ring_index]
            entry = (ring_position(node_id, ring_index), node_id)
            index = bisect.bisect_left(ring, entry)
            ring.insert(index, entry)
            succ, pred = self._succ[ring_index], self._pred[ring_index]
            if len(ring) == 1:
                succ[node_id] = pred[node_id] = None
                continue
            before = ring[index - 1][1]
            after = ring[(index + 1) % len(ring)][1]
            succ[before] = node_id
            succ[node_id] = after
            # ``after``'s old key names ``before`` unless it was alone.
            pred[node_id] = pred[after] or (before, ring_index)
            pred[after] = (node_id, ring_index)

    def remove_node(self, node_id: int) -> None:
        if node_id not in self._members:
            raise ValueError(f"node {node_id} is not on the rings")
        self._members.discard(node_id)
        for ring_index in range(self.num_rings):
            ring = self._rings[ring_index]
            entry = (ring_position(node_id, ring_index), node_id)
            index = bisect.bisect_left(ring, entry)
            assert ring[index] == entry
            del ring[index]
            succ, pred = self._succ[ring_index], self._pred[ring_index]
            before_key, after = pred.pop(node_id), succ.pop(node_id)
            if len(ring) == 1:
                succ[after] = pred[after] = None
            elif ring:
                succ[before_key[0]] = after
                pred[after] = before_key

    # -- neighbourhood queries -------------------------------------------------
    def successor(self, node_id: int, ring_index: int) -> "int | None":
        """The next node clockwise on ``ring_index`` (None if alone)."""
        try:
            return self._succ[ring_index][node_id]
        except KeyError:
            raise self._bad_query(node_id, ring_index) from None

    def predecessor(self, node_id: int, ring_index: int) -> "int | None":
        """The previous node clockwise on ``ring_index`` (None if alone)."""
        try:
            key = self._pred[ring_index][node_id]
        except KeyError:
            raise self._bad_query(node_id, ring_index) from None
        return None if key is None else key[0]

    def predecessor_key(self, node_id: int, ring_index: int) -> "Tuple[int, int] | None":
        """``(predecessor, ring_index)`` — the copy key of the edge into
        ``node_id`` on ``ring_index`` — as one tuple that stays the same
        object until the edge changes (None if alone)."""
        try:
            return self._pred[ring_index][node_id]
        except KeyError:
            raise self._bad_query(node_id, ring_index) from None

    def _bad_query(self, node_id: int, ring_index: int) -> ValueError:
        if node_id not in self._members:
            return ValueError(f"node {node_id} is not on the rings")
        return ValueError(f"ring index {ring_index} out of range")

    def successors(self, node_id: int) -> "List[int]":
        """This node's successor on every ring (with repetitions).

        A broadcast forwards one copy per ring, so the multiplicity
        matters for cost accounting; use :meth:`successor_set` for the
        distinct-node view, and :meth:`follows` to judge an accuser.
        """
        found = []
        for ring_index in range(self.num_rings):
            succ = self.successor(node_id, ring_index)
            if succ is not None:
                found.append(succ)
        return found

    def predecessors(self, node_id: int) -> "List[int]":
        found = []
        for ring_index in range(self.num_rings):
            pred = self.predecessor(node_id, ring_index)
            if pred is not None:
                found.append(pred)
        return found

    def successor_set(self, node_id: int) -> Set[int]:
        """Distinct successors — the paper's *successor set*, whose
        opponent-majority probability drives the choice of R."""
        return set(self.successors(node_id))

    def follows(self, accuser: int, accused: int) -> bool:
        """Whether no member lies between ``accused`` and ``accuser`` on some ring, clockwise;
        ``accuser`` may be off the rings, so removals only turn it True. O(R log n)."""
        if accused not in self._members:
            return False
        for index, ring in enumerate(self._rings):
            start, end = (ring_position(accused, index), accused), (ring_position(accuser, index), accuser)
            after, before = bisect.bisect_right(ring, start), bisect.bisect_left(ring, end)
            if not (before - after if start < end else len(ring) - after + before):
                return True
        return False

    def ring_order(self, ring_index: int) -> "List[int]":
        """Members of one ring in clockwise position order."""
        if not 0 <= ring_index < self.num_rings:
            raise ValueError(f"ring index {ring_index} out of range")
        return [node_id for _pos, node_id in self._rings[ring_index]]
