"""Partitioning a group directory into shard bundles.

The group-sharded simulator (:mod:`repro.simnet.shard`) runs one
sub-simulator per *bundle* of groups. This module owns the static side
of that split:

* :func:`snapshot_groups` — freeze a fully-bootstrapped
  :class:`~repro.groups.manager.GroupDirectory` into serializable
  :class:`GroupSpec` records (gid, interval, member ids), and hash it
  (:func:`directory_digest`, how live replicas compare);
* :func:`plan_bundles` — deterministically balance those groups over
  ``num_shards`` bundles (largest-first greedy, ties broken by gid);
* :class:`BundleDirectory` — a :class:`GroupDirectory` restricted to
  one bundle: same gids, same intervals, same member views as the full
  directory, but covering only the bundle's ID intervals.

Groups are the natural shard boundary because RAC couples them only
through blacklist dissemination and eviction broadcasts (PAPER §IV-B);
everything else — rings, relays, monitors, transport — is group-local.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .manager import Group, GroupDirectory

__all__ = [
    "GroupSpec",
    "ShardPartitionError",
    "snapshot_groups",
    "directory_digest",
    "plan_bundles",
    "BundleDirectory",
]


class ShardPartitionError(RuntimeError):
    """A sharded run hit a group operation the partition cannot express
    (e.g. a dissolve that would merge intervals across two bundles)."""


@dataclass(frozen=True)
class GroupSpec:
    """One frozen group: its id, ID interval and member node ids."""

    gid: int
    lo: int
    hi: int
    members: Tuple[int, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "gid": self.gid,
            "lo": str(self.lo),  # 128-bit ints: keep JSON readers honest
            "hi": str(self.hi),
            "members": [str(m) for m in self.members],
        }

    @staticmethod
    def from_dict(body: "Dict[str, object]") -> "GroupSpec":
        return GroupSpec(
            gid=int(body["gid"]),
            lo=int(body["lo"]),
            hi=int(body["hi"]),
            members=tuple(int(m) for m in body["members"]),
        )


def snapshot_groups(directory: GroupDirectory) -> "List[GroupSpec]":
    """Freeze every group of a bootstrapped directory, sorted by gid."""
    specs = []
    for gid in sorted(directory.groups):
        group = directory.groups[gid]
        specs.append(
            GroupSpec(gid=gid, lo=group.lo, hi=group.hi, members=tuple(sorted(group.members)))
        )
    return specs


def directory_digest(directory: GroupDirectory) -> str:
    """SHA-256 of :func:`snapshot_groups`: equal digests, equal gids,
    intervals and members."""
    return hashlib.sha256(repr(snapshot_groups(directory)).encode()).hexdigest()


def plan_bundles(specs: "Sequence[GroupSpec]", num_shards: int) -> "List[List[GroupSpec]]":
    """Balance groups over ``num_shards`` bundles, deterministically.

    Largest-first greedy bin packing: groups sorted by (size desc, gid
    asc) land on the currently lightest bundle (ties: lowest bundle
    index). Two coordinators planning the same directory produce
    byte-identical bundles — the plan participates in the sharded run's
    determinism fingerprint.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if num_shards > len(specs):
        raise ValueError(
            f"cannot spread {len(specs)} groups over {num_shards} shards; "
            "lower --shards or group_max"
        )
    bundles: "List[List[GroupSpec]]" = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for spec in sorted(specs, key=lambda s: (-len(s.members), s.gid)):
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        bundles[target].append(spec)
        loads[target] += len(spec.members)
    for bundle in bundles:
        bundle.sort(key=lambda s: s.gid)
    return bundles


class BundleDirectory(GroupDirectory):
    """A group directory restricted to one shard's bundle.

    Groups are pre-built with the gids and intervals the coordinator's
    full directory assigned, so every gid-derived quantity (domains,
    ring topology, thresholds) matches the monolithic run. The bundle's
    intervals do **not** cover the whole ID space; lookups outside them
    raise :class:`ShardPartitionError` instead of the full directory's
    partition assertion. Splits cannot trigger (bundle groups are final
    sizes, already <= smax); a dissolve whose interval neighbour lives
    in another bundle is unsupported and raises.
    """

    def __init__(
        self, num_rings: int, specs: "Iterable[GroupSpec]", smin: int = 2, smax: "int | None" = None
    ) -> None:
        # Deliberately not calling super().__init__: it would seed the
        # directory with a fresh gid counter and one space-wide group.
        if smax is not None and smax < 2 * smin:
            raise ValueError("smax must be at least 2 * smin")
        self.num_rings = num_rings
        self.smin = smin
        self.smax = smax
        self.groups: Dict[int, Group] = {}
        self._node_group: Dict[int, int] = {}
        self.event_counts: Dict[str, int] = {}
        max_gid = 0
        for spec in specs:
            if spec.gid in self.groups:
                raise ValueError(f"duplicate gid {spec.gid} in bundle")
            group = Group(spec.gid, spec.lo, spec.hi, num_rings)
            self.groups[spec.gid] = group
            max_gid = max(max_gid, spec.gid)
        if not self.groups:
            raise ValueError("a bundle needs at least one group")
        self._gid_counter = itertools.count(max_gid + 1)

    def group_for_id(self, id_value: int) -> Group:
        for group in self.groups.values():
            if group.covers(id_value):
                return group
        raise ShardPartitionError(
            f"id {id_value:#x} is outside this shard's bundle intervals"
        )

    def _interval_neighbor(self, group: Group) -> Group:
        try:
            return super()._interval_neighbor(group)
        except AssertionError:
            raise ShardPartitionError(
                f"group {group.gid} would dissolve into a neighbour owned by "
                "another shard; sharded runs do not support cross-bundle "
                "dissolves (keep group_min low enough that evictions cannot "
                "shrink a group below it)"
            ) from None

    def check_invariants(self) -> None:
        """Bundle-local invariants: no overlap, consistent membership.

        (The full-space coverage check does not apply: a bundle only
        owns its own intervals.)
        """
        intervals = sorted((g.lo, g.hi) for g in self.groups.values())
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(intervals, intervals[1:]):
            if lo_b < hi_a:
                raise AssertionError(f"overlapping intervals at {lo_b:#x}")
        for node_id, gid in self._node_group.items():
            group = self.groups[gid]
            if node_id not in group.members:
                raise AssertionError(f"node {node_id} missing from group {gid}")
            if not group.covers(node_id):
                raise AssertionError(f"node {node_id} outside its group interval")
