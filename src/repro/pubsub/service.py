"""PubSubService: the long-running anonymous pub/sub façade.

One service hosts a :class:`~repro.live.cluster.LiveCluster` (real TCP
between nodes), runs the :class:`~repro.pubsub.core.PubSubCore` engine
over it, and exposes a **framed JSON client API** on its own TCP port
(length-prefixed frames, the same framing as the node wire —
:mod:`repro.live.framing`):

========== ==============================================================
op          request fields → response fields
========== ==============================================================
subscribe   index, topic → added
unsubscribe index, topic → removed
publish     index, topic, body (hex) → seq
topics      → topics: [{topic, subscribers}]
join        [ticket] → index, node_id (§IV-C puzzle admission)
leave       index → node_id
stats       → counters, reconfigurations, parity, invariants
delivered   → by_topic
ping        → pong
========== ==============================================================

Every response carries ``ok``; failures carry ``error`` instead of
tearing the connection down. Group membership is fully dynamic: a
``join`` triggers the live split path when the covering group outgrows
``smax``; ``leave``/evictions trigger dissolves; evicted or departed
nodes have their subscriptions reaped. An embedded
:class:`~repro.chaos.invariants.InvariantChecker` audits the run — no
honest evictions, directory always a partition — and its verdict ships
in the final report.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..chaos.invariants import InvariantChecker, InvariantReport, final_blacklists
from ..core.config import RacConfig, timer_regime
from ..live.cluster import LiveCluster, LiveReport
from ..live.framing import read_frame, write_frame
from ..live.node import LiveNode
from ..simnet.stats import StatsRegistry
from .admission import AdmissionTicket, ticket_material
from .core import ParityReport, PubSubCore

import json

__all__ = ["PubSubService", "PubSubReport"]


@dataclass
class PubSubReport:
    """Everything one service run produced."""

    live: LiveReport
    parity: ParityReport
    reconfigurations: "Dict[str, int]"
    invariants: InvariantReport
    delivered_by_topic: "Dict[str, int]"
    pubsub_counters: "Dict[str, int]"
    joins: int
    leaves: int

    @property
    def splits(self) -> int:
        return self.reconfigurations.get("split", 0)

    @property
    def dissolves(self) -> int:
        return self.reconfigurations.get("dissolve", 0)

    def render(self) -> str:
        lines = [self.live.render()]
        lines.append(
            "pub/sub: "
            + f"{self.pubsub_counters.get('pubsub_publishes', 0)} publishes, "
            + f"{self.pubsub_counters.get('pubsub_fanout_sent', 0)} fan-outs, "
            + f"{self.pubsub_counters.get('pubsub_deliveries', 0)} deliveries"
        )
        lines.append(
            f"  membership churn     : {self.joins} joins, {self.leaves} leaves, "
            f"{self.splits} splits, {self.dissolves} dissolves"
        )
        for topic, count in sorted(self.delivered_by_topic.items()):
            lines.append(f"  topic {topic!r:20s}: {count} deliveries")
        lines.append(self.parity.render())
        lines.append(self.invariants.render())
        return "\n".join(lines)


class PubSubService:
    """Hosts the cluster, the engine and the client API.

    The default configuration is the ``wall-heal`` timer regime —
    misbehaviour detection far beyond any churn transient, so splits,
    dissolves and joins can never read as freeriding — with a small
    ``group_max`` so a modest deployment actually exercises the
    split/dissolve lifecycle."""

    PUMP_INTERVAL = 0.05

    def __init__(
        self,
        nodes: int,
        config: "Optional[RacConfig]" = None,
        seed: int = 0,
        *,
        port_base: "Optional[int]" = None,
    ) -> None:
        self.config = (
            config if config is not None else timer_regime("wall-heal", group_min=2, group_max=6)
        )
        self.stats = StatsRegistry()
        self.core = PubSubCore(self.stats)
        self.cluster = LiveCluster(
            nodes,
            config=self.config,
            seed=seed,
            port_base=port_base,
            on_delivered=self._on_delivered,
            eviction_observer=self._on_evicted,
        )
        self.checker = InvariantChecker(
            [m.node_id for m in self.cluster.materials]
        )
        self.joins = 0
        self.leaves = 0
        self._epoch: "Optional[float]" = None
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._pump_task: "Optional[asyncio.Task]" = None
        self._server: "Optional[asyncio.AbstractServer]" = None
        self.api_port: "Optional[int]" = None

    @property
    def now(self) -> float:
        if self._epoch is None or self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        await self.cluster.start()
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self._probe_directory()
        self._pump_task = asyncio.get_running_loop().create_task(self._pump_loop())

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open the client API socket; returns the bound port."""
        self._server = await asyncio.start_server(self._handle_client, host, port)
        self.api_port = self._server.sockets[0].getsockname()[1]
        return self.api_port

    async def stop(self, duration: float = 0.0) -> PubSubReport:
        if self._pump_task is not None:
            self._pump_task.cancel()
            await asyncio.gather(self._pump_task, return_exceptions=True)
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._probe_directory()
        self.checker.finish(self.now)
        survivors = [
            node.rac
            for node in self.cluster.nodes
            if node.rac is not None and not node.killed
        ]
        invariants = self.checker.check(final_blacklists(survivors))
        live_report = await self.cluster.shutdown(duration)
        return PubSubReport(
            live=live_report,
            parity=self.core.parity(self._excused()),
            reconfigurations=self.cluster.reconfigurations(),
            invariants=invariants,
            delivered_by_topic=self.core.delivered_by_topic(),
            pubsub_counters=self.stats.as_dict(),
            joins=self.joins,
            leaves=self.leaves,
        )

    # -- engine ----------------------------------------------------------------
    async def _pump_loop(self) -> None:
        while True:
            await asyncio.sleep(self.PUMP_INTERVAL)
            self.pump()

    def pump(self) -> int:
        directory = self.cluster.group_directory
        if directory is None:
            return 0
        by_id = {n.node_id: n for n in self.cluster.live_nodes()}

        def queue_fn(publisher: int, key, gid: int, payload: bytes) -> bool:
            node = by_id.get(publisher)
            if node is None or node.rac is None:
                return True  # publisher gone: the copy is undeliverable
            return node.rac.queue_message(key, gid, payload)

        return self.core.pump(directory, queue_fn)

    def _on_delivered(self, node_id: int, payload: bytes) -> None:
        self.core.record_delivery(node_id, payload)
        self.checker.record_delivery(self.now, node_id, payload)

    def _on_evicted(self, reporter: int, accused: int, domain, kind: str) -> None:
        self.checker.record_eviction(self.now, reporter, accused, kind)
        reaped = self.core.topics.reap(accused)
        if reaped:
            self.stats.add("pubsub_subscriptions_reaped", len(reaped))
        self._probe_directory()

    def _probe_directory(self) -> None:
        """Feed every replica's partition invariant to the checker —
        asserted after each live split/dissolve/join/leave."""
        if self.cluster.group_directory is not None:
            self.checker.check_directory(self.now, self.cluster.group_directory)
        for node in self.cluster.live_nodes():
            self.checker.check_directory(self.now, node.env.directory)

    def _excused(self) -> "Set[int]":
        return set(self.cluster.evicted) | set(self.cluster.departed)

    # -- operations (usable in-process or via the TCP API) ---------------------
    def _material(self, index: int):
        if not 0 <= index < len(self.cluster.materials):
            raise ValueError(f"no node slot {index}")
        return self.cluster.materials[index]

    def subscribe(self, index: int, topic: str) -> bool:
        material = self._material(index)
        if material.node_id in self._excused():
            raise ValueError(f"node slot {index} has left the system")
        added = self.core.topics.subscribe(
            topic, material.pseudonym_keypair.public, material.node_id
        )
        if added:
            self.stats.add("pubsub_subscriptions")
        return added

    def unsubscribe(self, index: int, topic: str) -> bool:
        material = self._material(index)
        removed = self.core.topics.unsubscribe(
            topic, material.pseudonym_keypair.public, material.node_id
        )
        if removed:
            self.stats.add("pubsub_unsubscribes")
        return removed

    def publish(self, index: int, topic: str, body: bytes) -> int:
        material = self._material(index)
        if material.node_id in self._excused():
            raise ValueError(f"node slot {index} has left the system")
        seq = self.core.enqueue_publish(topic, body, material.node_id)
        self.pump()
        return seq

    async def join(self, ticket: "Optional[AdmissionTicket]" = None) -> LiveNode:
        """Admit one node mid-run; splits apply live if the group
        outgrows ``smax``. With a ticket, keys are re-derived and the
        puzzle re-verified (AdmissionError on forgery) before the
        cluster's per-replica verification runs."""
        material = None
        if ticket is not None:
            material = ticket_material(
                self.config, ticket, index=len(self.cluster.materials) + 1
            )
        node = await self.cluster.join_node(material)
        self.joins += 1
        self.checker.honest.add(node.node_id)
        self._probe_directory()
        return node

    async def leave(self, index: int) -> int:
        node_id = await self.cluster.leave_node(index)
        self.leaves += 1
        reaped = self.core.topics.reap(node_id)
        if reaped:
            self.stats.add("pubsub_subscriptions_reaped", len(reaped))
        self._probe_directory()
        return node_id

    def topic_summary(self) -> "List[Dict[str, object]]":
        return [
            {"topic": topic, "subscribers": self.core.topics.subscriber_count(topic)}
            for topic in self.core.topics.topics()
        ]

    def stats_summary(self) -> "Dict[str, object]":
        parity = self.core.parity(self._excused())
        return {
            "counters": self.stats.as_dict(),
            "reconfigurations": self.cluster.reconfigurations(),
            "joins": self.joins,
            "leaves": self.leaves,
            "evictions": len(self.cluster.evicted),
            "nodes": len(self.cluster.live_nodes()),
            "parity": {
                "expected": parity.expected,
                "delivered": parity.delivered,
                "missing": len(parity.missing),
            },
            "pending_publishes": self.core.pending_publishes(),
        }

    # -- the framed JSON client API --------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                try:
                    request = json.loads(frame.decode())
                    response = await self._dispatch(request)
                except Exception as exc:  # noqa: BLE001 — API boundary
                    response = {"ok": False, "error": str(exc)}
                    self.stats.add("pubsub_api_errors")
                write_frame(writer, json.dumps(response).encode())
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: "Dict[str, object]") -> "Dict[str, object]":
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "subscribe":
            added = self.subscribe(int(request["index"]), str(request["topic"]))
            return {"ok": True, "added": added}
        if op == "unsubscribe":
            removed = self.unsubscribe(int(request["index"]), str(request["topic"]))
            return {"ok": True, "removed": removed}
        if op == "publish":
            seq = self.publish(
                int(request["index"]),
                str(request["topic"]),
                bytes.fromhex(str(request["body"])),
            )
            return {"ok": True, "seq": seq}
        if op == "topics":
            return {"ok": True, "topics": self.topic_summary()}
        if op == "join":
            ticket = request.get("ticket")
            node = await self.join(
                AdmissionTicket.from_json(ticket) if ticket is not None else None
            )
            return {
                "ok": True,
                "index": len(self.cluster.materials) - 1,
                "node_id": f"{node.node_id:#x}",
            }
        if op == "leave":
            node_id = await self.leave(int(request["index"]))
            return {"ok": True, "node_id": f"{node_id:#x}"}
        if op == "stats":
            return {"ok": True, **self.stats_summary()}
        if op == "delivered":
            return {"ok": True, "by_topic": self.core.delivered_by_topic()}
        raise ValueError(f"unknown op {op!r}")
