"""LiveCluster: spawn, run and tear down a fleet of live RAC nodes.

Two execution modes share the node code path:

* **tasks** (default) — N nodes as concurrent asyncio tasks in one
  process, all traffic over real localhost TCP sockets. This is the
  mode :func:`repro.scenario.run_scenario` (``substrate="live"``) and
  the fault tests use: one process to debug, real bytes on the wire.
* **subprocess** — N worker processes (``python -m repro.live.worker``),
  each hosting one node, rendezvousing through the parent's bootstrap
  directory. Same protocol, real process isolation; evictions apply
  per-replica only (no cross-process coordinator).

In tasks mode the cluster is also the eviction coordinator: the first
complete evidence report wins and is applied to every replica in the
same loop iteration — the shared-view simplification the simulator
makes (DESIGN.md §1), kept identical so sim and live runs agree.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import RacConfig, check_timers, timer_regime
from ..core.identity import NodeMaterial, PopulationFactory
from ..core.messages import DomainId
from ..groups.assignment import verify_puzzle
from ..groups.manager import GroupDirectory
from .directory import BootstrapDirectory, RosterEntry
from .node import LiveNode

__all__ = ["LiveCluster", "LiveReport", "run_subprocess_demo"]


@dataclass
class LiveReport:
    """What one cluster run produced, across all nodes."""

    nodes: int
    duration: float
    delivered: "Dict[int, List[bytes]]"
    per_node: "Dict[int, Dict[str, int]]"
    evicted: "List[int]"
    errors: "List[str]" = field(default_factory=list)

    @property
    def deliveries(self) -> int:
        return sum(len(payloads) for payloads in self.delivered.values())

    def counters(self) -> "Dict[str, int]":
        totals: "Dict[str, int]" = {}
        for counters in self.per_node.values():
            for name, value in counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def accusations(self) -> int:
        return sum(
            value for name, value in self.counters().items() if name.startswith("accusation_")
        )

    def render(self) -> str:
        totals = self.counters()
        lines = [
            f"live cluster: {self.nodes} nodes, {self.duration:.1f}s wall clock",
            f"  anonymous deliveries : {self.deliveries}",
            f"  accusations          : {self.accusations}",
            f"  evictions            : {len(self.evicted)}",
            f"  tcp frames sent      : {totals.get('live_frames_sent', 0)}",
            f"  tcp bytes sent       : {totals.get('live_bytes_sent', 0)}",
            f"  frames rejected      : {totals.get('live_frames_rejected', 0)}",
            f"  inbound rejected     : {totals.get('live_inbound_rejected', 0)}",
            f"  link resets          : {totals.get('live_link_resets', 0)}",
            f"  connect retries      : {totals.get('live_connect_retries', 0)}",
            f"  reconnect failures   : {totals.get('live_reconnect_failures', 0)}",
            f"  backlog drops        : {totals.get('live_frames_dropped_backlog', 0)}",
            f"  oversize drops       : {totals.get('live_frames_dropped_oversize', 0)}",
        ]
        if self.errors:
            lines.append(f"  callback errors      : {len(self.errors)}")
            lines.extend(f"    {err}" for err in self.errors[:5])
        return "\n".join(lines)


class LiveCluster:
    """N live nodes in one process (asyncio tasks mode)."""

    def __init__(
        self,
        count: int,
        config: "Optional[RacConfig]" = None,
        seed: int = 0,
        *,
        host: str = "127.0.0.1",
        port_base: "Optional[int]" = None,
        on_delivered=None,
        eviction_observer=None,
    ) -> None:
        if count < 2:
            raise ValueError("a live cluster needs at least two nodes")
        self.config = config if config is not None else timer_regime("wall")
        check_timers(self.config, self.config.derived_send_interval(count))
        self.host = host
        self.port_base = port_base
        #: Identity stream shared with the sim: ``take(count)`` is the
        #: bootstrap population, later draws are the dynamic joiners a
        #: ``RacSystem.join()`` sequence would mint.
        self._factory = PopulationFactory(self.config, seed)
        self.materials: "List[NodeMaterial]" = self._factory.take(count)
        self.directory = BootstrapDirectory(host=host)
        self.nodes: "List[LiveNode]" = []
        #: Dead incarnations of restarted nodes; their deliveries and
        #: counters are merged into the report alongside the survivors.
        self._retired: "List[LiveNode]" = []
        self._incarnations: "Dict[int, int]" = {}
        self.evicted: "List[int]" = []
        #: Graceful departures (node ids), distinct from evictions.
        self.departed: "List[int]" = []
        #: Canonical post-bootstrap membership history: ordered
        #: ("join", RosterEntry) / ("remove", node_id) records. A late
        #: joiner's replica replays it over the bootstrap roster —
        #: directory state is insertion-order dependent (splits cut at
        #: the median of whoever is present), so order, not just the
        #: final member set, must be shared.
        self._membership_log: "List[tuple]" = []
        self._initial_roster: "Optional[List[RosterEntry]]" = None
        #: The cluster's own (coordinator-side) directory replica. The
        #: service layer resolves publish fan-out against it — it
        #: outlives any individual node — and its ``event_counts``
        #: deltas since bootstrap are the deployment-level
        #: split/dissolve tally.
        self.group_directory: "Optional[GroupDirectory]" = None
        self._baseline_counts: "Dict[str, int]" = {}
        self._on_delivered = on_delivered
        self._eviction_observer = eviction_observer
        self._started = False

    # -- lifecycle -------------------------------------------------------------
    def build_node(self, index: int, *, port: "Optional[int]" = None) -> LiveNode:
        """Construct (not start) the node for slot ``index``.

        Used by ``start()`` and by the chaos supervisor when restarting
        a crashed node with the same identity; ``port`` pins the listen
        port so peers' existing reconnect loops find the replacement."""
        if port is None:
            port = 0 if self.port_base is None else self.port_base + index
        incarnation = self._incarnations.get(index, 0)
        self._incarnations[index] = incarnation + 1
        return LiveNode(
            self.materials[index],
            self.config,
            self.directory.host,
            self.directory.port,
            host=self.host,
            port=port,
            incarnation=incarnation,
            on_delivered=self._on_delivered,
            on_eviction=self._on_eviction,
        )

    async def start(self) -> None:
        """Start the directory and every node; activate when all joined."""
        await self.directory.start()
        for index in range(len(self.materials)):
            self.nodes.append(self.build_node(index))
        await asyncio.gather(*(node.start() for node in self.nodes))
        roster = self.directory.roster()
        self._initial_roster = list(roster)
        self.group_directory = GroupDirectory(
            self.config.num_rings, smin=self.config.group_min, smax=self.config.group_max
        )
        for entry in sorted(roster, key=lambda e: e.node_id):
            self.group_directory.add_node(entry.node_id, entry.id_key)
        self._baseline_counts = dict(self.group_directory.event_counts)
        for node in self.nodes:
            await node.activate(len(self.nodes), roster=roster)
        self._started = True

    def queue_message(self, src_index: int, dst_index: int, payload: bytes) -> bool:
        """Queue an anonymous message between two cluster nodes (the
        application-level send of ``RacSystem.send``, by index)."""
        src = self.nodes[src_index]
        dst_material = self.materials[dst_index]
        assert src.rac is not None and src.env is not None
        dst_gid = src.env.group_of(dst_material.node_id)
        return src.rac.queue_message(
            dst_material.pseudonym_keypair.public, dst_gid, payload
        )

    async def run_for(self, duration: float) -> None:
        await asyncio.sleep(duration)

    def kill_node(self, index: int) -> int:
        """Crash one node abruptly (fault testing); returns its id."""
        node = self.nodes[index]
        node.kill()
        return node.node_id

    # -- dynamic membership (tasks mode) ---------------------------------------
    async def join_node(self, material: "Optional[NodeMaterial]" = None) -> LiveNode:
        """Admit one node after start: the paper's §IV-C join, live.

        The joiner presents its hash-puzzle solution; every running
        replica re-verifies it (forged IDs are rejected before any
        state changes), then the joiner is activated with the canonical
        membership log — so its directory replica converges with the
        incumbents' — and its JOIN is applied everywhere, splitting the
        covering group if it outgrows ``smax``. Returns the new node.
        """
        if not self._started or self._initial_roster is None:
            raise RuntimeError("start() the cluster before joining nodes")
        if material is None:
            material = self._factory.next_material()
        key_id = material.id_keypair.public.key_id
        for node in self.live_nodes():
            if not verify_puzzle(
                key_id, material.puzzle.vector, material.node_id, self.config.puzzle_bits
            ):
                raise ValueError(
                    f"join rejected: node {material.node_id:#x} failed puzzle "
                    f"verification at replica {node.node_id:#x}"
                )
            node.env.stats.add("live_join_verifications")
        index = len(self.materials)
        self.materials.append(material)
        joiner = self.build_node(index)
        await joiner.start()
        entry = joiner.roster_entry()
        # Incumbents admit the joiner *before* it starts originating,
        # so none of its first frames arrive from an unknown member;
        # frames racing toward the joiner pre-activation are dropped by
        # its own guard (cover traffic, tolerated by design).
        for node in self.live_nodes():
            node.env.apply_join(entry)
        assert self.group_directory is not None
        self.group_directory.add_node(entry.node_id, entry.id_key)
        self._membership_log.append(("join", entry))
        # The joiner replays history *including its own join*, so it
        # ends up inside its own replica exactly as the incumbents see
        # it — same insertion order, same splits, same rings.
        await joiner.activate(
            0,
            roster=self._initial_roster,
            membership_log=list(self._membership_log),
        )
        self.nodes.append(joiner)
        self._check_directories()
        return joiner

    async def leave_node(self, index: int) -> int:
        """Gracefully depart one node: shutdown, then a LEAVE applied to
        every replica (dissolving its group if it shrinks below
        ``smin``). Returns the departed node id."""
        node = self.nodes[index]
        node_id = node.node_id
        if not node.killed:
            await node.shutdown()
            node.killed = True  # cluster shutdown must not re-stop it
        self.departed.append(node_id)
        for other in self.live_nodes():
            other.env.apply_leave(node_id)
        if self.group_directory is not None:
            self.group_directory.remove_node(node_id)
        self._membership_log.append(("remove", node_id))
        self._check_directories()
        return node_id

    def reconfigurations(self) -> "Dict[str, int]":
        """Post-bootstrap directory events by kind (deployment-level:
        one split is one split, however many replicas applied it)."""
        if self.group_directory is None:
            return {}
        return {
            kind: count - self._baseline_counts.get(kind, 0)
            for kind, count in self.group_directory.event_counts.items()
            if count - self._baseline_counts.get(kind, 0) > 0
        }

    def live_nodes(self) -> "List[LiveNode]":
        return [n for n in self.nodes if not n.killed and n.env is not None]

    def _check_directories(self) -> None:
        """Assert every replica's directory is still a partition — the
        §IV-C invariant most at risk under dynamic churn."""
        if self.group_directory is not None:
            self.group_directory.check_invariants()
        for node in self.live_nodes():
            node.env.directory.check_invariants()

    def adopt_replacement(self, index: int, node: LiveNode) -> None:
        """Swap a restarted node into slot ``index``. The dead
        incarnation is retired, not discarded — what it delivered and
        counted before the crash still belongs in the report."""
        self._retired.append(self.nodes[index])
        self.nodes[index] = node

    async def shutdown(self, duration: float = 0.0) -> LiveReport:
        for node in self.nodes:
            if not node.killed:
                await node.shutdown()
        await self.directory.close()
        errors: "List[str]" = []
        delivered: "Dict[int, List[bytes]]" = {}
        per_node: "Dict[int, Dict[str, int]]" = {}
        for node in self._retired + self.nodes:
            if node.env is not None:
                errors.extend(f"node {node.node_id:#x}: {e!r}" for e in node.env.errors)
            delivered.setdefault(node.node_id, []).extend(node.delivered())
            merged = per_node.setdefault(node.node_id, {})
            for name, value in node.counters().items():
                merged[name] = merged.get(name, 0) + value
        return LiveReport(
            nodes=len(self.nodes),
            duration=duration,
            delivered=delivered,
            per_node=per_node,
            evicted=list(self.evicted),
            errors=errors,
        )

    # -- eviction coordination (tasks mode) ------------------------------------
    def _on_eviction(self, reporter: int, accused: int, domain: DomainId, kind: str) -> None:
        if accused in self.evicted:
            return
        if self._eviction_observer is not None:
            self._eviction_observer(reporter, accused, domain, kind)
        self.evicted.append(accused)
        self._membership_log.append(("remove", accused))
        if self.group_directory is not None and accused in self.group_directory.node_ids:
            self.group_directory.remove_node(accused)
        for node in self.nodes:
            if node.env is not None:
                node.env.apply_eviction(accused)
            if node.node_id == accused and not node.killed:
                if node.rac is not None:
                    node.rac.stop()


# ---------------------------------------------------------------------------
# subprocess mode
# ---------------------------------------------------------------------------


def _worker_env() -> "Dict[str, str]":
    """Child environment with this package importable."""
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
    return env


async def _run_subprocess_cluster(
    count: int,
    duration: float,
    *,
    seed: int,
    messages: int,
    port_base: "Optional[int]",
    config_overrides: "Optional[Dict[str, object]]",
) -> LiveReport:
    directory = BootstrapDirectory()
    await directory.start()
    overrides_json = json.dumps(config_overrides or {})
    procs = []
    try:
        for index in range(count):
            argv = [
                sys.executable,
                "-m",
                "repro.live.worker",
                "--directory",
                f"{directory.host}:{directory.port}",
                "--index",
                str(index),
                "--count",
                str(count),
                "--seed",
                str(seed),
                "--duration",
                str(duration),
                "--messages",
                str(messages),
                "--config",
                overrides_json,
            ]
            if port_base is not None:
                argv += ["--port", str(port_base + index)]
            procs.append(
                await asyncio.create_subprocess_exec(
                    *argv,
                    stdout=asyncio.subprocess.PIPE,
                    stderr=asyncio.subprocess.PIPE,
                    env=_worker_env(),
                )
            )
        outputs = await asyncio.gather(*(p.communicate() for p in procs))
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
        await directory.close()

    delivered: "Dict[int, List[bytes]]" = {}
    per_node: "Dict[int, Dict[str, int]]" = {}
    errors: "List[str]" = []
    for index, (proc, (stdout, stderr)) in enumerate(zip(procs, outputs)):
        if proc.returncode != 0:
            errors.append(
                f"worker {index} exited {proc.returncode}: {stderr.decode(errors='replace')[-500:]}"
            )
            continue
        summary = json.loads(stdout.decode().strip().splitlines()[-1])
        node_id = int(summary["node_id"])
        delivered[node_id] = [bytes.fromhex(h) for h in summary["delivered_hex"]]
        per_node[node_id] = {k: int(v) for k, v in summary["counters"].items()}
        errors.extend(summary.get("errors", []))
    return LiveReport(
        nodes=count,
        duration=duration,
        delivered=delivered,
        per_node=per_node,
        evicted=[],
        errors=errors,
    )


def run_subprocess_demo(
    nodes: int = 8,
    duration: float = 10.0,
    *,
    seed: int = 0,
    messages: int = 2,
    port_base: "Optional[int]" = None,
    config_overrides: "Optional[Dict[str, object]]" = None,
) -> LiveReport:
    """Blocking entry point: every node in its own worker process."""
    return asyncio.run(
        _run_subprocess_cluster(
            nodes,
            duration,
            seed=seed,
            messages=messages,
            port_base=port_base,
            config_overrides=config_overrides,
        )
    )
