"""Membership views.

Every RAC node keeps *"a view containing the list of the nodes present
in the system"* (Section IV-C). A :class:`MembershipView` is that list
for one broadcast domain (a group or a channel), together with the ring
topology derived from it and the public-key directory needed to build
onions. Views evolve under joins and evictions; all correct nodes that
apply the same sequence of membership events converge to the same
topology because ring positions are pure functions of the view.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..crypto.keys import PublicKey
from .rings import RingTopology

__all__ = ["MembershipView"]


class MembershipView:
    """The node set, key directory and rings of one broadcast domain."""

    __slots__ = ("num_rings", "topology", "_id_keys")

    def __init__(self, num_rings: int, members: "Iterable[int]" = ()) -> None:
        self.num_rings = num_rings
        self.topology = RingTopology([], num_rings)
        self._id_keys: Dict[int, PublicKey] = {}
        for node_id in members:
            self.add(node_id)

    # -- queries ---------------------------------------------------------------
    @property
    def members(self) -> Set[int]:
        return self.topology.members

    def __len__(self) -> int:
        return len(self.topology)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.topology

    def id_key(self, node_id: int) -> "Optional[PublicKey]":
        """The ID public key a sender uses to address an onion layer."""
        return self._id_keys.get(node_id)

    def nodes_with_keys(self) -> "List[int]":
        """Members whose ID key is known (eligible as relays)."""
        return [node_id for node_id in sorted(self.topology.members) if node_id in self._id_keys]

    # -- mutation ----------------------------------------------------------------
    def add(self, node_id: int, id_key: "Optional[PublicKey]" = None) -> None:
        """Admit a node (idempotent for repeated JOIN broadcasts)."""
        if node_id not in self.topology:
            self.topology.add_node(node_id)
        if id_key is not None:
            self._id_keys[node_id] = id_key

    def remove(self, node_id: int) -> None:
        """Evict or drop a node (idempotent)."""
        if node_id in self.topology:
            self.topology.remove_node(node_id)
        self._id_keys.pop(node_id, None)

    # -- neighbourhood shortcuts ---------------------------------------------------
    def successors(self, node_id: int) -> "List[int]":
        return self.topology.successors(node_id)

    def predecessors(self, node_id: int) -> "List[int]":
        return self.topology.predecessors(node_id)
