"""Group-sharded simulation: one deterministic sub-simulator per bundle.

RAC's groups are near-independent by construction (Herbivore-style
partitioning, PAPER §IV-B): rings, relays, monitors and the ARQ
transport never cross a group boundary, and with intra-group traffic
the only cross-group flows are blacklist dissemination and eviction
broadcasts. The sharded simulator exploits exactly that:

* the **coordinator** replays the monolithic bootstrap
  (:func:`repro.core.identity.build_population` + a directory replay)
  to obtain the same population and the same final groups, then
  partitions the groups into bundles (:mod:`repro.groups.partition`);
* each **shard** is a :class:`ShardSystem` — a full
  :class:`~repro.core.system.RacSystem` hosting only its bundle's
  nodes over a :class:`~repro.groups.partition.BundleDirectory`;
* shards advance in lock-step **epochs**; at each epoch barrier they
  export locally-decided evictions and import every other shard's,
  giving the run a stable, fingerprintable cross-shard schedule;
* a blacklist round is the monolithic tally
  (:meth:`~repro.core.system.RacSystem._run_group_shuffle`), which
  draws from no stream, so a group's rounds do not depend on which
  groups share its shard.

What is and is not bit-identical to the monolithic engine is documented
in DESIGN.md §4; the load-bearing equivalence (same delivered-payload
multiset, same eviction set at N=64) is asserted by
``tests/integration/test_sharded_equivalence.py`` and ``make
scale-smoke``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import RacConfig, check_timers
from ..core.identity import NodeMaterial, build_population
from ..core.system import RacSystem
from ..groups.channels import ChannelDirectory
from ..groups.manager import GroupDirectory
from ..groups.partition import BundleDirectory, GroupSpec, plan_bundles, snapshot_groups
from ..chaos.plan import MEMBERSHIP
from ..scenario import Scenario, UnsupportedOnSubstrate, plant_behaviors, traffic_sends

__all__ = [
    "ScaleSpec",
    "ShardSystem",
    "ZERO_FINGERPRINT",
    "canonical_blob",
    "chain_fingerprint",
    "plan_population",
    "filter_plan_events",
    "build_shard_system",
    "epoch_step",
    "delivered_payloads",
    "shard_summary",
    "merge_fingerprint",
]

#: The fingerprint chain's genesis value.
ZERO_FINGERPRINT = "0" * 64


# ---------------------------------------------------------------------------
# the run specification (JSON manifest round-trip)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleSpec:
    """Everything that determines one sharded run, JSON-serializable.

    ``config`` carries RacConfig overrides applied on top of the scale
    preset (``RacConfig.small`` with 0.25 s origination slots, 1 kB
    messages and ``group_max``-bounded groups). ``deviants``,
    ``coalition`` (``members`` / ``victims``) and ``plan`` mean what
    they mean on a :class:`~repro.scenario.Scenario`, except that
    indices here are 1-based (``NodeMaterial.index``); shards apply the
    plan events touching their own nodes.

    :meth:`scenario` is the same run as a ``Scenario``: what validates
    the spec, what every shard lowers behaviours, plan and traffic
    through, and what ``verify_sharded`` runs unsharded as the
    equivalence oracle.
    """

    nodes: int = 64
    num_shards: int = 2
    seed: int = 7
    horizon: float = 4.0
    epoch: float = 1.0
    messages: int = 1
    group_max: int = 16
    config: "Dict[str, Any]" = field(default_factory=dict)
    deviants: "Dict[int, str]" = field(default_factory=dict)
    coalition: "Optional[Dict[str, Any]]" = None
    plan: "Optional[str]" = None

    def __post_init__(self) -> None:
        if self.nodes < 4:
            raise ValueError("a sharded run needs at least 4 nodes")
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.epoch <= 0 or self.horizon <= 0:
            raise ValueError("horizon and epoch must be positive")
        if self.group_max < 4:
            raise ValueError("group_max below 4 cannot honour group_min=2 splits")
        # The scenario checks plan name, behaviour names, coalition shape, config keys.
        plan = self.scenario().fault_plan()
        if any(event.kind in MEMBERSHIP for event in plan.events):
            raise UnsupportedOnSubstrate(
                "plan", "sharded", "a join or leave would reconfigure the groups of one shard only"
            )

    @property
    def epoch_count(self) -> int:
        count = int(self.horizon / self.epoch)
        if count * self.epoch < self.horizon - 1e-12:
            count += 1
        return count

    def epoch_end(self, epoch_index: int) -> float:
        return min(self.horizon, (epoch_index + 1) * self.epoch)

    def scenario(self) -> Scenario:
        coalition = None
        if self.coalition is not None:
            coalition = dict(self.coalition)
            for key in ("members", "victims"):
                coalition[key] = [int(i) - 1 for i in coalition.get(key, ())]
        return Scenario(
            nodes=self.nodes,
            horizon=self.horizon,
            seed=self.seed,
            config={
                "group_min": 2,
                "group_max": self.group_max,
                "send_interval": 0.25,
                "message_size": 1024,
                "blacklist_period": 2.0,
                **self.config,
            },
            plan=self.plan,
            deviants={int(index) - 1: name for index, name in self.deviants.items()},
            coalition=coalition,
            traffic="intra-group",
            messages=self.messages,
            tag="scale",
        )

    def build_config(self) -> RacConfig:
        return self.scenario().configuration()

    def to_dict(self) -> "Dict[str, Any]":
        body = dataclasses.asdict(self)
        body["deviants"] = {str(index): name for index, name in self.deviants.items()}
        # ``coalition`` and ``plan`` are serialized only when used:
        # pre-coalition manifests (and their fingerprint material) stay
        # byte-identical.
        return {key: value for key, value in body.items() if value is not None}

    @staticmethod
    def from_dict(body: "Dict[str, Any]") -> "ScaleSpec":
        deviants = {int(index): name for index, name in body.get("deviants", {}).items()}
        return ScaleSpec(**{**body, "deviants": deviants})


# ---------------------------------------------------------------------------
# deterministic planning (identical in coordinator and every worker)
# ---------------------------------------------------------------------------
def plan_population(spec: ScaleSpec) -> "Tuple[RacConfig, List[NodeMaterial], GroupDirectory]":
    """The population and final groups a monolithic run would build.

    Replays :meth:`RacSystem.bootstrap`'s identity draws and directory
    mutations (including splits) without instantiating nodes, so every
    shard worker derives the same groups from the spec alone.
    """
    config = spec.build_config()
    materials = build_population(config, spec.nodes, spec.seed)
    directory = GroupDirectory(
        config.num_rings, smin=config.group_min, smax=config.group_max
    )
    for material in materials:
        directory.add_node(material.node_id, material.id_keypair.public)
    return config, materials, directory


def filter_plan_events(plan, local_indices: "set"):
    """A copy of ``plan`` holding only the events a shard must apply.

    Node-scoped events survive iff their node is hosted locally;
    partitions are intersected with the local population (both sides
    must stay non-empty — a cut entirely between bundles is a no-op,
    since no traffic crosses shards mid-epoch); global loss windows
    apply everywhere. Event indices stay in the *global* creation
    order, so the filtered plan compiles against the full node-id list.
    """
    from ..chaos.plan import FaultPlan

    filtered = FaultPlan(seed=plan.seed, horizon=plan.horizon)
    for event in plan.schedule():
        if event.kind == "partition":
            side_a = tuple(i for i in event.side_a if i in local_indices)
            side_b = tuple(i for i in event.side_b if i in local_indices)
            if side_a and side_b:
                filtered.partition(side_a, side_b, event.at, event.duration)
            continue
        if event.kind == "loss" and event.node is None:
            filtered.loss(event.rate, event.at, event.duration)
            continue
        if event.node is not None and event.node not in local_indices:
            continue
        filtered.events.append(event)
    return filtered


# ---------------------------------------------------------------------------
# the shard
# ---------------------------------------------------------------------------
class ShardSystem(RacSystem):
    """A :class:`RacSystem` hosting one bundle of a sharded deployment.

    Differences from the monolithic system, all barrier-mediated:

    * the directory is a :class:`BundleDirectory` over the coordinator's
      frozen group specs (same gids, same intervals, same members);
    * locally-decided evictions are queued as *export* records for the
      next epoch barrier, and foreign evictions arrive as *imports*;
    * eviction notices reach co-hosted groups only (a foreign node has
      no uplink here).
    """

    def __init__(
        self,
        config: RacConfig,
        seed: int,
        shard_index: int,
        bundle: "Sequence[GroupSpec]",
    ) -> None:
        super().__init__(config, seed=seed)
        self.shard_index = shard_index
        self.directory = BundleDirectory(
            config.num_rings, bundle, smin=config.group_min, smax=config.group_max
        )
        self.channels = ChannelDirectory(self.directory)
        self.bundle_gids: Tuple[int, ...] = tuple(s.gid for s in bundle)
        self.foreign_evicted: "Dict[int, Dict]" = {}
        self._pending_exports: "List[Dict]" = []

    # -- population -----------------------------------------------------------
    def populate(self, materials: "Sequence[NodeMaterial]", behaviors=None) -> "List[int]":
        """Instantiate this bundle's members from pre-drawn identities;
        ``behaviors`` is keyed by 0-based creation index."""
        behaviors = behaviors or {}
        created: "List[int]" = []
        for material in sorted(materials, key=lambda m: m.index):
            created.append(self._instantiate_node(material, behaviors.get(material.index - 1)))
        self._start_blacklist_rounds()
        if self.nodes:
            self._validate_timers()
        return created

    # -- the merge layer ------------------------------------------------------
    def evict(self, accused: int, by: int, domain, kind: str):
        channels = super().evict(accused, by, domain, kind)
        if channels is not None:
            record = self.evicted[accused]
            self._pending_exports.append(
                {
                    "kind": "eviction",
                    "node": accused,
                    "gid": record["gid"],
                    "by": by,
                    "evidence": kind,
                    "at": record["at"],
                    "shard": self.shard_index,
                }
            )
        return channels

    def apply_foreign_eviction(self, record: "Dict") -> bool:
        """Apply one imported eviction at an epoch barrier.

        Foreign nodes are not hosted here, so the only effect is the
        membership purge every local node performs — exactly what the
        monolithic ``evict`` did to out-of-group nodes, one
        epoch earlier at the latest.
        """
        node_id = int(record["node"])
        if node_id in self.foreign_evicted or node_id in self.evicted:
            return False
        self.foreign_evicted[node_id] = dict(record)
        for node in self.nodes.values():
            if node.active:
                node.on_evicted(node_id)
        self.stats.add("foreign_evictions_applied")
        return True

    def drain_exports(self) -> "List[Dict]":
        out = self._pending_exports
        self._pending_exports = []
        return out


def build_shard_system(spec: ScaleSpec, shard_index: int) -> ShardSystem:
    """Construct shard ``shard_index`` of ``spec`` at t=0, traffic queued."""
    config, materials, directory = plan_population(spec)
    specs = snapshot_groups(directory)
    bundles = plan_bundles(specs, spec.num_shards)
    if not 0 <= shard_index < len(bundles):
        raise ValueError(f"shard index {shard_index} outside 0..{len(bundles) - 1}")
    bundle = bundles[shard_index]
    local_ids = {m for s in bundle for m in s.members}
    system = ShardSystem(config, spec.seed, shard_index, bundle)
    local_materials = [m for m in materials if m.node_id in local_ids]
    scenario = spec.scenario()
    behaviors = plant_behaviors(scenario, config, materials)
    local_behaviors = {i: b for i, b in behaviors.items() if materials[i].node_id in local_ids}
    system.populate(local_materials, local_behaviors)
    node_ids = [m.node_id for m in materials]
    for _at, src, dst, payload in traffic_sends(scenario, node_ids, directory):
        if node_ids[src] in local_ids:
            system.send(node_ids[src], node_ids[dst], payload)
    plan = scenario.fault_plan()
    if plan.events:
        # Rejected here, at plan time, rather than surfacing as
        # mysterious honest evictions at N=256.
        check_timers(config, system.send_interval_for(local_materials[0].node_id), plan=plan)
        local_indices = {m.index - 1 for m in local_materials}
        local_plan = filter_plan_events(plan, local_indices)
        local_plan.compile_sim(system, node_ids)
    return system


# ---------------------------------------------------------------------------
# epochs and fingerprints
# ---------------------------------------------------------------------------
def canonical_blob(value: Any) -> str:
    """Deterministic JSON for fingerprint material and barrier files."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def chain_fingerprint(previous_hex: str, blob: str) -> str:
    return hashlib.sha256(f"{previous_hex}|{blob}".encode()).hexdigest()


def sort_barrier_records(records: "List[Dict]") -> "List[Dict]":
    """The canonical cross-shard order of one barrier's eviction records."""
    return sorted(records, key=lambda r: (float(r["at"]), int(r["gid"]), int(r["node"])))


def delivered_payloads(system: RacSystem) -> "List[str]":
    """The run's delivered-payload multiset, as a sorted hex list."""
    out: "List[str]" = []
    for node in system.nodes.values():
        out.extend(p.hex() for p in node.delivered)
    out.sort()
    return out


def epoch_step(
    system: ShardSystem,
    spec: ScaleSpec,
    epoch_index: int,
    imports: "List[Dict]",
    fingerprint: str,
) -> "Tuple[List[Dict], str]":
    """Advance one shard across one epoch; returns (exports, fingerprint).

    ``imports`` is the canonical barrier record list from the previous
    epoch (all shards' exports); records from this shard are skipped.
    The fingerprint chain folds the applied imports, the produced
    exports and the end-of-epoch engine state, so two runs agree on the
    fingerprints iff they agree on the entire cross-shard schedule.
    """
    applied = [
        record
        for record in imports
        if int(record.get("shard", -1)) != system.shard_index
        and system.apply_foreign_eviction(record)
    ]
    system.sim.run(until=spec.epoch_end(epoch_index))
    exports = system.drain_exports()
    blob = canonical_blob(
        {
            "epoch": epoch_index,
            "imports": sort_barrier_records(applied),
            "exports": sort_barrier_records(exports),
            "now": system.now,
            "events": system.sim.events_processed,
            "delivered": sum(len(n.delivered) for n in system.nodes.values()),
        }
    )
    return exports, chain_fingerprint(fingerprint, blob)


def shard_summary(system: ShardSystem, fingerprint: str) -> "Dict[str, Any]":
    """One shard's final, mergeable record of the run."""
    delivered = delivered_payloads(system)
    evicted = {
        str(node_id): {
            "gid": rec["gid"],
            "kind": rec["kind"],
            "by": rec["by"],
            "at": rec["at"],
        }
        for node_id, rec in system.evicted.items()
    }
    final_fingerprint = chain_fingerprint(
        fingerprint, canonical_blob({"delivered": delivered, "evicted": evicted})
    )
    return {
        "shard": system.shard_index,
        "groups": list(system.bundle_gids),
        "nodes": len(system.nodes),
        "now": system.now,
        "delivered": delivered,
        "evicted": evicted,
        "stats": system.stats_report(),
        "fingerprint": final_fingerprint,
    }


def merge_fingerprint(shard_fingerprints: "Sequence[str]", barrier_digests: "Sequence[str]") -> str:
    """The whole run's fingerprint: every shard chain + every barrier."""
    blob = canonical_blob(
        {"shards": list(shard_fingerprints), "barriers": list(barrier_digests)}
    )
    return chain_fingerprint(ZERO_FINGERPRINT, blob)
