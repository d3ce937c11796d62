"""Crash-restart supervision: play a fault plan against a live cluster.

The :class:`ChaosSupervisor` is the live backend of a
:class:`repro.chaos.plan.FaultPlan`. It arms one asyncio task per
timeline event and, as the wall clock crosses each one:

* **crash** — kills the victim's tasks and sockets abruptly via
  :meth:`repro.live.cluster.LiveCluster.kill_node` (peers see reset
  connections and a silent ring member);
* **crash-restart** — after the planned downtime, rebuilds the node
  *with the same* :class:`repro.core.identity.NodeMaterial` identity
  and the same TCP port, re-registers it through the directory
  (retrying while a directory outage overlaps), copies an incumbent's
  membership replica (its bootstrap roster and ordered join, leave and
  eviction log, as a joiner does), and resumes relaying — peers' links
  reconnect on their own jittered backoff;
* **directory outage** — closes the rendezvous server and restarts it
  on the same port after the window (registrations survive in memory,
  as a directory restored from its log would);
* **join / leave** — admits the next identity of the cluster's stream
  through :meth:`~repro.live.cluster.LiveCluster.join_node` (the
  puzzle re-verified at every replica) or departs a node through
  :meth:`~repro.live.cluster.LiveCluster.leave_node`, then probes every
  directory replica with the checker — a split or dissolve rewrote them;
* **partition / loss / degrade / reorder** — nothing to do here: these
  are time-windows the :class:`repro.chaos.proxy.ChaosProxy` evaluates
  per frame; the supervisor only installs the shim on every node's
  environment (and re-installs it on restarted ones).

Restart preserves *identity*, not in-memory protocol state: a real
crashed process loses its pending sends, monitors and local blacklists,
and so does a restarted :class:`LiveNode` — what must survive is the
node's keys, id, port and membership view, and it does.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional

from ..live.cluster import LiveCluster
from ..live.directory import DirectoryUnavailable
from .invariants import InvariantChecker
from .plan import MEMBERSHIP, FaultEvent, FaultPlan
from .proxy import ChaosProxy

__all__ = ["ChaosSupervisor"]

#: How long a restarting node keeps retrying a dead directory before
#: the restart is abandoned (and recorded, never silently dropped).
_REREGISTER_BUDGET = 30.0


class ChaosSupervisor:
    """Drives one plan's timeline against one started LiveCluster."""

    def __init__(
        self,
        cluster: LiveCluster,
        plan: FaultPlan,
        *,
        checker: "Optional[InvariantChecker]" = None,
        topology=None,
    ) -> None:
        plan.validate(len(cluster.materials))
        self.cluster = cluster
        self.plan = plan
        self.checker = checker
        self.proxy = ChaosProxy(
            plan,
            [m.node_id for m in cluster.materials],
            bandwidth_bps=cluster.config.link_bandwidth_bps,
            topology=topology,
        )
        self._tasks: "List[asyncio.Task]" = []
        self._churn = asyncio.Lock()
        #: Human-readable record of what the supervisor actually did.
        self.log: "List[str]" = []
        self.restarts = 0
        self.failed_restarts = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Install the fault shim and arm the timeline. Call right
        after ``cluster.start()`` so plan t=0 is cluster activation."""
        loop = asyncio.get_running_loop()
        self.proxy.start(loop)
        for node in self.cluster.nodes:
            if node.env is not None:
                self._install(node)
        for event in self.plan.schedule():
            self._tasks.append(loop.create_task(self._play(event)))

    async def stop(self) -> None:
        """Cancel pending events and flush the proxy."""
        for task in self._tasks:
            task.cancel()
        results = await asyncio.gather(*self._tasks, return_exceptions=True)
        for event, result in zip(self.plan.schedule(), results):
            if isinstance(result, Exception):  # an event that died must not vanish
                self._note(f"{event.describe()} failed: {result!r}")
        self._tasks.clear()
        self.proxy.close()

    def _note(self, text: str) -> None:
        self.log.append(f"t={self.proxy.now:7.3f}s {text}")

    # -- the timeline ----------------------------------------------------------
    async def _play(self, event: FaultEvent) -> None:
        await asyncio.sleep(max(0.0, event.at - self.proxy.now))
        if event.kind == "crash":
            await self._play_crash(event)
        elif event.kind == "directory_outage":
            await self._play_directory_outage(event)
        elif event.kind in MEMBERSHIP:
            await self._play_membership(event)
        # partition/loss/degrade/reorder: proxy windows, nothing to arm.

    async def _play_membership(self, event: FaultEvent) -> None:
        """Admit the next joiner or depart a node, then probe every
        directory replica: a split or dissolve just rewrote them."""
        async with self._churn:  # joiners take creation indices in join order
            if event.kind == "join":
                node = await self.cluster.join_node()
                self._install(node)
                self._note(f"node#{len(self.cluster.nodes) - 1} ({node.node_id:#x}) joined")
            elif not self.cluster.nodes[event.node].killed:
                node_id = await self.cluster.leave_node(event.node)
                self._note(f"node#{event.node} ({node_id:#x}) left")
        if self.checker is not None:
            now = self.proxy.now
            for node in self.cluster.live_nodes():
                self.checker.check_directory(now, node.env.directory)

    def _install(self, node) -> None:
        """Route a new incarnation's frames through the fault shim."""
        self.proxy.register(node.node_id, node.env.stats)
        node.env.fault_shim = self.proxy

    async def _play_crash(self, event: FaultEvent) -> None:
        index = event.node
        node = self.cluster.nodes[index]
        if node.killed:
            return
        port = node.port
        victim = self.cluster.kill_node(index)
        self._note(f"crashed node#{index} ({victim:#x})")
        if self.checker is not None:
            self.checker.note_crash(victim, self.proxy.now)
        if event.restart_after is None:
            return
        await asyncio.sleep(event.restart_after)
        await self.restart_node(index, port=port)

    async def restart_node(self, index: int, *, port: "Optional[int]" = None) -> bool:
        """Bring a killed node back with its original identity.

        Returns True on success. The node re-binds its previous port
        (so peers' queued frames flush over their existing reconnect
        loops), re-registers with the directory — retrying while the
        directory is down — and activates on a copy of an incumbent's
        replica, so evictions that landed while it was down are in it.
        """
        material = self.cluster.materials[index]
        node = self.cluster.build_node(index, port=port)
        deadline = self.proxy.now + _REREGISTER_BUDGET
        while True:
            try:
                await node.start()
                break
            except DirectoryUnavailable:
                if self.proxy.now >= deadline:
                    self.failed_restarts += 1
                    self._note(
                        f"restart of node#{index} abandoned: directory unreachable "
                        f"for {_REREGISTER_BUDGET:g}s"
                    )
                    node.kill()
                    return False
                await asyncio.sleep(0.2)
        sponsor = self.cluster.sponsor().env
        await node.activate(0, roster=sponsor.roster, membership_log=list(sponsor.log))
        self.cluster.adopt_replacement(index, node)
        self._install(node)
        self.restarts += 1
        self._note(f"restarted node#{index} ({material.node_id:#x}) on port {node.port}")
        if self.checker is not None:
            self.checker.note_restart(material.node_id, self.proxy.now)
        return True

    async def _play_directory_outage(self, event: FaultEvent) -> None:
        await self.cluster.directory.close()
        self._note(f"directory down for {event.duration:g}s")
        await asyncio.sleep(event.duration)
        await self.cluster.directory.start()
        self._note("directory restored")
