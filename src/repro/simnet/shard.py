"""Group-sharded simulation: one deterministic sub-simulator per bundle.

RAC's groups are near-independent by construction (Herbivore-style
partitioning, PAPER §IV-B): rings, relays, monitors and the ARQ
transport never cross a group boundary, and with intra-group traffic
the only cross-group flows are blacklist dissemination and eviction
broadcasts. The sharded simulator exploits exactly that:

* the **coordinator** replays the monolithic bootstrap once
  (:func:`repro.core.identity.build_population` + a directory replay)
  to obtain the same population and the same final groups, partitions
  the groups into bundles (:mod:`repro.groups.partition`) and cuts the
  plan into one :class:`ShardInputs` per bundle
  (:func:`plan_shard_inputs`);
* each **shard** is a :class:`ShardSystem` — a full
  :class:`~repro.core.system.RacSystem` hosting only its bundle's
  nodes over a :class:`~repro.groups.partition.BundleDirectory`, built
  from its inputs alone;
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

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import RacConfig
from ..core.identity import NodeMaterial, build_population
from ..core.system import RacSystem
from ..groups.channels import ChannelDirectory
from ..groups.manager import GroupDirectory
from ..groups.partition import BundleDirectory, GroupSpec, plan_bundles, snapshot_groups
from ..scenario import Scenario, plant_behaviors, traffic_sends

__all__ = [
    "ShardSystem",
    "ZERO_FINGERPRINT",
    "canonical_blob",
    "chain_fingerprint",
    "plan_population",
    "ShardInputs",
    "plan_shard_inputs",
    "filter_plan_events",
    "build_shard_system",
    "epoch_ends",
    "epoch_step",
    "delivered_payloads",
    "shard_summary",
    "merge_fingerprint",
]

#: The fingerprint chain's genesis value.
ZERO_FINGERPRINT = "0" * 64


# ---------------------------------------------------------------------------
# deterministic planning (once per run, by the coordinator)
# ---------------------------------------------------------------------------
def plan_population(scenario: Scenario) -> "Tuple[RacConfig, List[NodeMaterial], GroupDirectory]":
    """The population and final groups a monolithic run would build.

    Replays :meth:`RacSystem.bootstrap`'s identity draws and directory
    mutations (including splits) without instantiating nodes. Identities
    come off one sequential stream whose puzzle draws vary in count, so
    node k's material depends on every draw before it: the population is
    planned whole, once, and each shard is handed its members.
    """
    config = scenario.configuration()
    materials = build_population(config, scenario.nodes, scenario.seed)
    directory = GroupDirectory(
        config.num_rings, smin=config.group_min, smax=config.group_max
    )
    for material in materials:
        directory.add_node(material.node_id, material.id_keypair.public)
    return config, materials, directory


@dataclass(frozen=True)
class ShardInputs:
    """Everything one shard's build reads from the population plan.

    ``config`` is the plan's own, the one the identities were drawn
    under: an object both share (the key backend's name) stays one
    object in the shard's snapshot. ``materials`` are the bundle's
    members in creation order (each knows its creation index, all the
    fault plan needs) and ``behaviors`` the misbehaviours planted on
    them, keyed by 0-based creation index. ``sends`` are the members'
    queued traffic as ``(src id, dst id, payload)``, in the order the
    scenario lists them.
    """

    scenario: Scenario
    config: RacConfig
    shard_index: int
    bundle: "List[GroupSpec]"
    materials: "List[NodeMaterial]"
    behaviors: "Dict[int, Any]"
    sends: "List[Tuple[int, int, bytes]]"


def plan_shard_inputs(scenario: Scenario, shards: int) -> "List[ShardInputs]":
    """Plan ``scenario``'s population once and cut it into ``shards``
    shards' inputs."""
    config, materials, directory = plan_population(scenario)
    bundles = plan_bundles(snapshot_groups(directory), shards)
    behaviors = plant_behaviors(scenario, config, materials)
    node_ids = [m.node_id for m in materials]
    sends = traffic_sends(scenario, node_ids, directory)
    inputs = []
    for shard_index, bundle in enumerate(bundles):
        local_ids = {m for s in bundle for m in s.members}
        inputs.append(
            ShardInputs(
                scenario=scenario,
                config=config,
                shard_index=shard_index,
                bundle=bundle,
                materials=[m for m in materials if m.node_id in local_ids],
                behaviors={i: b for i, b in behaviors.items() if node_ids[i] in local_ids},
                sends=[
                    (node_ids[src], node_ids[dst], payload)
                    for _at, src, dst, payload in sends
                    if node_ids[src] in local_ids
                ],
            )
        )
    return inputs


def filter_plan_events(plan, local_indices: "set"):
    """A copy of ``plan`` holding only the events a shard must apply.

    Node-scoped events survive iff their node is hosted locally;
    partitions are intersected with the local population (both sides
    must stay non-empty — a cut entirely between bundles is a no-op,
    since no traffic crosses shards mid-epoch); global loss windows
    apply everywhere. Event indices stay in the *global* creation
    order: the filtered plan compiles against ids looked up by global
    index, of which a shard needs only its members'.
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


def build_shard_system(inputs: ShardInputs) -> ShardSystem:
    """Construct one shard at t=0 from its inputs, traffic queued."""
    scenario = inputs.scenario
    system = ShardSystem(inputs.config, scenario.seed, inputs.shard_index, inputs.bundle)
    system.populate(inputs.materials, inputs.behaviors)
    # Rejected here, before the first epoch, rather than surfacing as
    # mysterious honest evictions at N=256.
    scenario.check_contract(system.send_interval_for(inputs.materials[0].node_id))
    for src, dst, payload in inputs.sends:
        system.send(src, dst, payload)
    plan = scenario.fault_plan()
    if plan.events:
        # The filtered plan names only members, by global creation
        # index; a sharded plan has no joins for the list to mint.
        local = {m.index - 1: m.node_id for m in inputs.materials}
        node_ids = [local.get(index) for index in range(max(local) + 1)]
        filter_plan_events(plan, set(local)).compile_sim(system, node_ids)
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


def epoch_ends(horizon: float, epoch: float) -> "List[float]":
    """Every epoch barrier's instant: one per ``epoch`` simulated
    seconds, the last clamped to the horizon."""
    count = int(horizon / epoch)
    if count * epoch < horizon - 1e-12:
        count += 1
    return [min(horizon, (index + 1) * epoch) for index in range(count)]


def epoch_step(
    system: ShardSystem,
    end: float,
    epoch_index: int,
    imports: "List[Dict]",
    fingerprint: str,
) -> "Tuple[List[Dict], str]":
    """Advance one shard across one epoch, to simulated time ``end``;
    returns (exports, fingerprint).

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
    system.sim.run(until=end)
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
    """One shard's final, mergeable record of the run: its fingerprint,
    and what the judge reads (every delivery, the evictions it decided,
    every active node's blacklist, its directory's invariants)."""
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
        fingerprint, canonical_blob({"delivered": delivered_payloads(system), "evicted": evicted})
    )
    try:
        system.directory.check_invariants()
        directory_error = None
    except AssertionError as exc:
        directory_error = str(exc)
    return {
        "shard": system.shard_index,
        "groups": list(system.bundle_gids),
        "nodes": len(system.nodes),
        "now": system.now,
        "deliveries": [
            (at, node.node_id, payload.hex())
            for node in system.nodes.values()
            for at, payload in zip(node.delivered_at, node.delivered)
        ],
        "evicted": evicted,
        "blacklists": {
            str(node.node_id): sorted(node.blacklisted()) for node in system.nodes.values() if node.active
        },
        "directory_error": directory_error,
        "stats": system.stats_report(),
        "fingerprint": final_fingerprint,
    }


def merge_fingerprint(shard_fingerprints: "Sequence[str]", barrier_digests: "Sequence[str]") -> str:
    """The whole run's fingerprint: every shard chain + every barrier."""
    blob = canonical_blob(
        {"shards": list(shard_fingerprints), "barriers": list(barrier_digests)}
    )
    return chain_fingerprint(ZERO_FINGERPRINT, blob)


# ---------------------------------------------------------------------------
# the benchmark's spelling (deleted with rac_bench's adapter import, 4(b-i))
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleSpec:
    """A ``scale`` harness scenario plus its shard count and epoch, in the
    fields ``benchmarks/rac_bench`` passes; plants nothing."""

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

    def scenario(self) -> Scenario:
        if self.deviants or self.coalition:
            raise ValueError("ScaleSpec plants nothing: plant on a Scenario")
        params = dict(nodes=self.nodes, horizon=self.horizon, messages=self.messages, plan=self.plan)
        return Scenario.from_params({**params, "group_max": self.group_max, **self.config}, self.seed, "scale")
