"""LiveCluster: spawn, run and tear down a fleet of live RAC nodes.

Two execution modes run the same node code, and
:func:`repro.scenario.run_scenario` (``substrate="live"``) judges both:

* **tasks** — a :class:`LiveCluster`: N nodes as asyncio tasks in one
  process over real localhost TCP; the fault shim and the crash-restart
  supervisor (:mod:`repro.chaos`) plug into it. It applies joins and
  leaves to every replica (the in-process join of DESIGN.md §1).
* **processes** — :func:`run_workers`: one ``python -m
  repro.live.worker`` process per node, rendezvousing through a
  bootstrap directory.

Either way every node evicts from its own replica by the replica rule
of :mod:`repro.core.node`: nobody applies a verdict for anyone else,
and the run's record is a :class:`LiveReport` over each node's own
:meth:`~repro.live.node.LiveNode.report` (taken when a cluster's
shutdown begins, printed by each worker). It is all the judge reads.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import RacConfig, timer_regime
from ..core.identity import NodeMaterial, PopulationFactory
from ..groups.assignment import verify_puzzle
from ..simnet.stats import aggregate_stats_reports
from .directory import BootstrapDirectory
from .node import LiveNode

__all__ = ["LiveCluster", "LiveReport", "run_workers"]


@dataclass
class LiveReport:
    """A live run's record: one :meth:`LiveNode.report` per incarnation
    (dead ones too), all taken at one instant, plus what went wrong
    outside any node. Everything else is derived from the reports, so
    clocks and verdicts are merged by one rule."""

    reports: "List[Dict[str, Any]]"
    #: Run-level failures: a worker that died, traffic that stopped.
    run_errors: "List[str]" = field(default_factory=list)

    @property
    def errors(self) -> "List[str]":
        return self.run_errors + [e for r in self.reports for e in r["errors"]]

    @property
    def delivered(self) -> "Dict[int, List[bytes]]":
        delivered: "Dict[int, List[bytes]]" = {}
        for r in self.reports:
            delivered.setdefault(r["node_id"], []).extend(
                bytes.fromhex(payload) for _at, payload in r["delivered"]
            )
        return delivered

    @property
    def per_node(self) -> "Dict[int, Dict[str, int]]":
        incarnations: "Dict[int, List[Dict[str, int]]]" = {}
        for r in self.reports:
            incarnations.setdefault(r["node_id"], []).append(r["counters"])
        return {node_id: aggregate_stats_reports(c) for node_id, c in incarnations.items()}

    def counters(self) -> "Dict[str, int]":
        return aggregate_stats_reports(r["counters"] for r in self.reports)

    @property
    def accusations(self) -> int:
        return sum(
            value for name, value in self.counters().items() if name.startswith("accusation_")
        )

    def deliveries(self, since: float) -> "List[Tuple[float, int, bytes]]":
        """Every ``(at, node id, payload)``, ``at`` counted from loop
        time ``since``, in time order."""
        return sorted(
            (r["epoch"] + at - since, r["node_id"], bytes.fromhex(payload))
            for r in self.reports
            for at, payload in r["delivered"]
        )

    def evictions(self, since: float = 0.0) -> "List[Tuple[float, int, int, str, Optional[int]]]":
        """The earliest record any replica kept per accused, as ``(at,
        by, accused, kind, gid)`` with ``at`` counted from loop time
        ``since``, in time order."""
        first: "Dict[int, Tuple[float, Dict[str, Any]]]" = {}
        for r in self.reports:
            for accused, record in r["evicted"]:
                at = r["epoch"] + record["at"]
                if accused not in first or at < first[accused][0]:
                    first[accused] = (at, record)
        return sorted(
            (at - since, record["by"], accused, record["kind"], record["gid"])
            for accused, (at, record) in first.items()
        )

    @property
    def evicted(self) -> "List[int]":
        """Every node some replica evicted, earliest first."""
        return [accused for _at, _by, accused, _kind, _gid in self.evictions()]


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
    ) -> None:
        if count < 2:
            raise ValueError("a live cluster needs at least two nodes")
        self.config = config if config is not None else timer_regime("wall")
        self.host = host
        self.port_base = port_base
        #: Identity stream shared with the sim: ``take(count)`` is the
        #: bootstrap population, later draws are the dynamic joiners a
        #: ``RacSystem.join()`` sequence would mint.
        self._factory = PopulationFactory(self.config, seed)
        self.materials: "List[NodeMaterial]" = self._factory.take(count)
        self.directory = BootstrapDirectory(host=host)
        self.nodes: "List[LiveNode]" = []
        #: Dead incarnations of restarted nodes; their deliveries,
        #: counters and evictions are merged into the report alongside
        #: the survivors.
        self._retired: "List[LiveNode]" = []
        self._incarnations: "Dict[int, int]" = {}
        self._on_delivered = on_delivered
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
        )

    async def start(self) -> None:
        """Start the directory and every node; activate when all joined."""
        await self.directory.start()
        for index in range(len(self.materials)):
            self.nodes.append(self.build_node(index))
        await asyncio.gather(*(node.start() for node in self.nodes))
        roster = self.directory.roster()
        for node in self.nodes:
            await node.activate(len(self.nodes), roster=roster)
        self._started = True

    def queue_message(self, src_index: int, dst_index: int, payload: bytes) -> bool:
        """Queue an anonymous message between two cluster nodes (the
        application-level send of ``RacSystem.send``, by index)."""
        return self.nodes[src_index].send(self.materials[dst_index], payload)

    async def run_for(self, duration: float) -> None:
        await asyncio.sleep(duration)

    def kill_node(self, index: int) -> int:
        """Crash one node abruptly (fault testing); returns its id."""
        node = self.nodes[index]
        node.kill()
        return node.node_id

    # -- dynamic membership (tasks mode) ---------------------------------------
    def sponsor(self) -> LiveNode:
        """An incumbent whose replica a joiner or a restarted node copies."""
        live = self.live_nodes()
        if not self._started or not live:
            raise RuntimeError("start() the cluster before joining nodes")
        return live[0]

    async def join_node(self, material: "Optional[NodeMaterial]" = None) -> LiveNode:
        """Admit one node after start: the paper's §IV-C join, live.

        The joiner presents its hash-puzzle solution; every running
        replica re-verifies it (forged IDs are rejected before any
        state changes), then its JOIN is applied everywhere, splitting
        the covering group if it outgrows ``smax``, and the joiner
        copies the sponsor's replica. Returns the new node.
        """
        sponsor = self.sponsor()
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
        # The sponsor's log holds the joiner's own join, so the joiner
        # ends up inside its replica exactly as the sponsor sees it —
        # same insertion order, same splits, same rings.
        await joiner.activate(0, roster=sponsor.env.roster, membership_log=list(sponsor.env.log))
        self.nodes.append(joiner)
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
        for other in self.live_nodes():
            other.env.apply_leave(node_id)
        return node_id

    def live_nodes(self) -> "List[LiveNode]":
        return [n for n in self.nodes if not n.killed and n.env is not None]

    def adopt_replacement(self, index: int, node: LiveNode) -> None:
        """Swap a restarted node into slot ``index``. The dead
        incarnation is retired, not discarded — what it delivered,
        counted and evicted before the crash still belongs in the report."""
        self._retired.append(self.nodes[index])
        self.nodes[index] = node

    async def shutdown(self, duration: float = 0.0) -> LiveReport:
        """Report every incarnation, dead ones first, then stop the
        fleet: the record is read before any node stops, so teardown
        never reaches it. Each report carries its own clock, so
        ``duration`` is not needed."""
        report = LiveReport([n.report() for n in self._retired + self.nodes if n.env is not None])
        for node in self.nodes:
            if not node.killed:
                await node.shutdown()
        await self.directory.close()
        return report


# ---------------------------------------------------------------------------
# processes mode
# ---------------------------------------------------------------------------


def _worker_env() -> "Dict[str, str]":
    """Child environment with this package importable."""
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
    return env


async def run_workers(
    scenario_json: str, count: int, port_base: "Optional[int]" = None
) -> LiveReport:
    """Run one worker process per node of a scenario (its
    :meth:`~repro.scenario.Scenario.to_dict` as JSON) and collect what
    each printed: the reports of the workers that exited cleanly, and
    an error line for each one that did not."""
    directory = BootstrapDirectory()
    await directory.start()
    procs = []
    try:
        for index in range(count):
            argv = [sys.executable, "-m", "repro.live.worker", "--index", str(index),
                    "--directory", f"{directory.host}:{directory.port}", "--scenario", scenario_json]
            if port_base is not None:
                argv += ["--port", str(port_base + index)]
            pipe = asyncio.subprocess.PIPE
            procs.append(await asyncio.create_subprocess_exec(
                *argv, stdout=pipe, stderr=pipe, env=_worker_env()
            ))
        outputs = await asyncio.gather(*(p.communicate() for p in procs))
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
        await directory.close()

    report = LiveReport([])
    for index, (proc, (stdout, stderr)) in enumerate(zip(procs, outputs)):
        if proc.returncode != 0:
            report.run_errors.append(
                f"worker {index} exited {proc.returncode}: {stderr.decode(errors='replace')[-500:]}"
            )
            continue
        report.reports.append(json.loads(stdout.decode().strip().splitlines()[-1]))
    return report
