"""Group lifecycle: assignment by ID, split and dissolve (Section IV-C).

Groups partition the 128-bit node-ID space into contiguous intervals,
so the group of a node is a pure function of its (puzzle-derived) ID —
"the group containing the node with the nearest ID". Two bounds govern
the lifecycle:

* a group that grows beyond ``smax`` **splits**: *"nodes with the lower
  IDs go in the first group, and nodes with the higher IDs go in the
  second group"* — we split at the median member ID;
* a group that shrinks below ``smin`` **dissolves**: its members rejoin
  the system and land in the adjacent interval.

Every mutation returns the list of :class:`GroupEvent` records that a
deployment would broadcast, so protocol simulations and tests can
assert on exactly which reconfigurations happened.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..overlay.membership import MembershipView

__all__ = ["Group", "GroupEvent", "GroupDirectory"]

_ID_SPACE = 1 << 128


@dataclass(frozen=True)
class GroupEvent:
    """One membership reconfiguration, in broadcast order."""

    kind: str  # "join" | "leave" | "split" | "dissolve"
    gid: int
    node_id: Optional[int] = None
    other_gid: Optional[int] = None


class Group:
    """A contiguous ID interval ``[lo, hi)`` and its member view."""

    def __init__(self, gid: int, lo: int, hi: int, num_rings: int) -> None:
        if not 0 <= lo < hi <= _ID_SPACE:
            raise ValueError(f"invalid interval [{lo}, {hi})")
        self.gid = gid
        self.lo = lo
        self.hi = hi
        self.view = MembershipView(num_rings)

    def covers(self, node_id: int) -> bool:
        return self.lo <= node_id < self.hi

    @property
    def members(self):
        return self.view.members

    def __len__(self) -> int:
        return len(self.view)

    def __repr__(self) -> str:
        return f"Group(gid={self.gid}, size={len(self)}, interval=[{self.lo:#x}, {self.hi:#x}))"


class GroupDirectory:
    """All groups of one RAC deployment.

    The directory is the *ground-truth* view a simulation maintains; in
    a real deployment every node reconstructs the same state from the
    JOIN / split / dissolve broadcasts (all its transitions are pure
    functions of the event sequence).
    """

    def __init__(self, num_rings: int, smin: int = 2, smax: "int | None" = None) -> None:
        if smax is not None and smax < 2 * smin:
            # A split produces two halves of ~smax/2 nodes; both must
            # stay above smin or the system would oscillate.
            raise ValueError("smax must be at least 2 * smin")
        self.num_rings = num_rings
        self.smin = smin
        self.smax = smax
        self._gid_counter = itertools.count(1)
        first = Group(next(self._gid_counter), 0, _ID_SPACE, num_rings)
        self.groups: Dict[int, Group] = {first.gid: first}
        self._node_group: Dict[int, int] = {}
        #: Running tally of emitted events by kind: how many splits and
        #: dissolves this deployment has been through.
        self.event_counts: Dict[str, int] = {}

    # -- lookups -----------------------------------------------------------
    def group_for_id(self, id_value: int) -> Group:
        """The group whose interval contains ``id_value``."""
        for group in self.groups.values():
            if group.covers(id_value):
                return group
        raise AssertionError("intervals must partition the ID space")

    def group_of_node(self, node_id: int) -> Group:
        gid = self._node_group.get(node_id)
        if gid is None:
            raise KeyError(f"node {node_id} is not in any group")
        return self.groups[gid]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._node_group

    @property
    def node_ids(self) -> "List[int]":
        return list(self._node_group)

    def sizes(self) -> "Dict[int, int]":
        return {gid: len(group) for gid, group in self.groups.items()}

    # -- mutations ------------------------------------------------------------
    def add_node(self, node_id: int, id_key=None) -> "List[GroupEvent]":
        """Place a joining node in the covering group; split if needed."""
        if node_id in self._node_group:
            raise ValueError(f"node {node_id} already joined")
        group = self.group_for_id(node_id)
        group.view.add(node_id, id_key)
        self._node_group[node_id] = group.gid
        events = [GroupEvent("join", group.gid, node_id=node_id)]
        if self.smax is not None and len(group) > self.smax:
            events.extend(self._split(group))
        return self._note(events)

    def remove_node(self, node_id: int) -> "List[GroupEvent]":
        """Remove a node (eviction or leave); dissolve if too small."""
        gid = self._node_group.pop(node_id, None)
        if gid is None:
            raise ValueError(f"node {node_id} is not in any group")
        group = self.groups[gid]
        group.view.remove(node_id)
        events = [GroupEvent("leave", gid, node_id=node_id)]
        if len(self.groups) > 1 and len(group) < self.smin:
            events.extend(self._dissolve(group))
        return self._note(events)

    def _note(self, events: "List[GroupEvent]") -> "List[GroupEvent]":
        """Account a batch of emitted events in the kind tallies."""
        for event in events:
            self.event_counts[event.kind] = self.event_counts.get(event.kind, 0) + 1
        return events

    # -- reconfiguration ---------------------------------------------------------
    def _split(self, group: Group) -> "List[GroupEvent]":
        """Split at the median member ID; high half forms a new group."""
        ordered = sorted(group.members)
        median = ordered[len(ordered) // 2]
        if median == group.lo:
            return []  # degenerate: all IDs equal; cannot split
        new = Group(next(self._gid_counter), median, group.hi, self.num_rings)
        group.hi = median
        moving = [n for n in ordered if n >= median]
        for node_id in moving:
            key = group.view.id_key(node_id)
            group.view.remove(node_id)
            new.view.add(node_id, key)
            self._node_group[node_id] = new.gid
        self.groups[new.gid] = new
        return [GroupEvent("split", group.gid, other_gid=new.gid)]

    def _dissolve(self, group: Group) -> "List[GroupEvent]":
        """Merge an undersized group's interval into a neighbour.

        The members "rejoin the system"; with interval partitioning
        they deterministically land in the absorbing neighbour.
        """
        neighbor = self._interval_neighbor(group)
        neighbor_lo = min(neighbor.lo, group.lo)
        neighbor_hi = max(neighbor.hi, group.hi)
        for node_id in sorted(group.members):
            key = group.view.id_key(node_id)
            group.view.remove(node_id)
            neighbor.view.add(node_id, key)
            self._node_group[node_id] = neighbor.gid
        neighbor.lo, neighbor.hi = neighbor_lo, neighbor_hi
        del self.groups[group.gid]
        events = [GroupEvent("dissolve", group.gid, other_gid=neighbor.gid)]
        if self.smax is not None and len(neighbor) > self.smax:
            events.extend(self._split(neighbor))
        return events

    def _interval_neighbor(self, group: Group) -> Group:
        for other in self.groups.values():
            if other.gid != group.gid and other.hi == group.lo:
                return other
        for other in self.groups.values():
            if other.gid != group.gid and other.lo == group.hi:
                return other
        raise AssertionError("every non-unique group has an interval neighbour")

    def check_invariants(self) -> None:
        """Intervals partition the space; membership maps are consistent.

        Used by tests and callable from simulations after any batch of
        mutations.
        """
        intervals = sorted((g.lo, g.hi) for g in self.groups.values())
        cursor = 0
        for lo, hi in intervals:
            if lo != cursor:
                raise AssertionError(f"gap or overlap before {lo:#x}")
            cursor = hi
        if cursor != _ID_SPACE:
            raise AssertionError("intervals do not cover the ID space")
        for node_id, gid in self._node_group.items():
            group = self.groups[gid]
            if node_id not in group.members:
                raise AssertionError(f"node {node_id} missing from group {gid}")
            if not group.covers(node_id):
                raise AssertionError(f"node {node_id} outside its group interval")
