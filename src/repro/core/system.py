"""The RAC system orchestrator.

:class:`RacSystem` wires every substrate together: the discrete-event
simulator, the star network and reliable transport, the group
directory, the channel directory and the population of
:class:`repro.core.node.RacNode` instances. It is both

* the **public API** of the library (``bootstrap``, ``join``, ``send``,
  ``run``, ``delivered_messages``, ...), and
* the ``env`` interface nodes talk to (clock, unicast, views, the
  directory replica).

Simulation-level simplifications, recorded here and in DESIGN.md §1:

* Every node shares one replica: the directory. A node runs the same
  replica rule as on the live substrate (:mod:`repro.core.node`), so the
  first complete conviction removes the accused for everyone and its
  eviction notices are real segments on the channel rings; a notice
  then finds the accused gone and is counted, not applied. View
  *divergence* is out of the paper's scope (its Fireflies and group
  machinery exists to keep views consistent); the message costs of
  joins are accounted, not sent.
* The anonymous blacklist round runs every ``blacklist_period`` as a
  tally: every active member of a group receives the sorted multiset
  of the members' 16-slot relay blacklists, an order that names no
  sender, and the round is charged Dissent v1's n² + 2n messages. The
  shuffle's cryptography runs in its own tests and in the Dissent
  baselines (:mod:`repro.baselines`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..crypto.keys import PublicKey
from ..groups.channels import ChannelDirectory
from ..groups.manager import GroupDirectory
from ..groups.assignment import verify_puzzle
from ..overlay.membership import MembershipView
from ..simnet.engine import Simulator
from ..simnet.faults import FaultInjector
from ..simnet.network import StarNetwork
from ..simnet.stats import LatencyMeter, StatsRegistry, ThroughputMeter, engine_counters
from ..simnet.trace import Tracer
from ..simnet.transport import ReliableTransport
from .config import RacConfig
from .environment import Replica
from .identity import PopulationFactory
from .messages import DomainId, JoinRequest
from .node import RacNode
from .wire import verify_unicast_payload

__all__ = ["RacSystem"]


class RacSystem(Replica):
    """One simulated RAC deployment.

    This class is the simnet-backed implementation of the
    :class:`repro.core.environment.NodeEnvironment` protocol (plus the
    public experiment API on top); :class:`repro.live.environment.LiveEnvironment`
    is the asyncio/TCP-backed one.
    """

    def __init__(
        self,
        config: "RacConfig | None" = None,
        seed: int = 0,
        topology=None,
    ) -> None:
        """``topology`` is an optional :class:`repro.topo.model.TopologyModel`
        shaping the star network (per-node access bandwidth, per-pair
        delay); None — or the byte-identical ``lan`` preset — keeps the
        paper's ideal star. The system runs whatever timers ``config``
        holds: only the scenario sees the fault plan, so the timer
        contract is its to check (:meth:`repro.scenario.Scenario
        .check_contract`)."""
        self.config = config if config is not None else RacConfig()
        #: Every identity this system mints, bootstrap and joiners alike.
        self._identities = PopulationFactory(self.config, seed)
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.topology = topology
        self.faults = FaultInjector(
            self.sim, seed=seed ^ 0x5EED, loss_rate=self.config.link_loss_rate
        )
        self.network = StarNetwork(
            self.sim,
            self.config.link_bandwidth_bps,
            propagation_jitter=self.config.propagation_jitter,
            jitter_seed=seed,
            faults=self.faults,
            topology=topology,
        )
        self.transport = ReliableTransport(
            self.network,
            rto_initial=self.config.transport_rto_initial,
            rto_min=self.config.transport_rto_min,
            rto_max=self.config.transport_rto_max,
            max_retries=self.config.transport_max_retries,
            on_failure=self._on_transport_failure,
        )
        self.directory = GroupDirectory(
            self.config.num_rings, smin=self.config.group_min, smax=self.config.group_max
        )
        self.channels = ChannelDirectory(self.directory)
        self.tracer = Tracer(self.config.trace)
        self.nodes: Dict[int, RacNode] = {}
        self.pseudonym_keys: Dict[int, PublicKey] = {}
        self.evicted: Dict[int, Dict] = {}
        self.global_meter = ThroughputMeter()
        self.latency_meter = LatencyMeter()
        self._send_times: Dict[bytes, List[float]] = {}
        self._interval_override: "float | None" = self.config.send_interval
        self._blacklist_rounds_scheduled = False
        self._puzzle_vectors: Dict[int, int] = {}

    # ======================================================================
    # env interface (consumed by RacNode)
    # ======================================================================
    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, callback, *args) -> None:
        self.sim.schedule(delay, callback, *args)

    def reserve(self, delay: float) -> "Tuple[float, int]":
        return self.sim.reserve(delay)

    def schedule_reserved(self, ticket: "Tuple[float, int]", callback, *args) -> None:
        self.sim.schedule_reserved(ticket, callback, *args)

    def unicast(self, src: int, dst: int, payload, size_bytes: int) -> None:
        uplinks = self.network.uplinks  # a node is attached iff it has an uplink
        if dst not in uplinks or src not in uplinks:
            return  # peer evicted/left; a real TCP connection would reset
        if self.config.wire_check:
            verify_unicast_payload(payload, size_bytes)
            self.stats.add("wire_checks")
        self.transport.send(src, dst, payload, size_bytes)

    def send_interval_for(self, node_id: int) -> float:
        if self._interval_override is not None:
            return self._interval_override
        group = self.directory.group_of_node(node_id)
        return self.config.derived_send_interval(len(group))

    def uplink_backlog_seconds(self, node_id: int) -> float:
        """Seconds of serialization queued on a node's uplink."""
        link = self.network.uplinks.get(node_id)
        return link.queue_delay() if link is not None else 0.0

    def usable_as_relay(self, node_id: int) -> bool:
        """The paper's 2T quarantine: fresh joiners are not relays yet."""
        node = self.nodes.get(node_id)
        if node is None or not node.active:
            return False
        return self.now >= node.joined_at + 2 * self.config.join_settle_time

    def on_delivered(self, node_id: int, payload: bytes) -> None:
        self.global_meter.record(self.now, len(payload))
        queued = self._send_times.get(payload)
        if queued:
            self.latency_meter.record(self.now - queued.pop(0))
            if not queued:
                del self._send_times[payload]

    def evict(
        self, accused: int, by: int, domain: DomainId, kind: str
    ) -> "Optional[Dict[DomainId, MembershipView]]":
        if accused not in self.nodes:
            return None  # a crafted join put it in the directory, no node runs it
        channels = super().evict(accused, by, domain, kind)
        if channels is not None:
            self.stats.add("evictions")
            self.tracer.record(self.now, "evicted", node=accused, by=by, evidence=kind)
        return channels

    def _remove(self, node_id: int) -> None:
        """Take a node out of the one replica: it stops and detaches, and
        every other node purges its monitoring state."""
        self.nodes[node_id].stop()
        self.transport.detach(node_id)
        self.directory.remove_node(node_id)
        self.channels.invalidate()
        for other in self.nodes.values():
            if other.active:
                other.on_evicted(node_id)

    def _on_transport_failure(self, src: int, dst: int, payload) -> None:
        """The ARQ gave up on a segment: the peer is unreachable.

        Deliberately *not* an accusation: retry exhaustion points at a
        dead host or a partitioned link, and the misbehaviour checks
        (which have their own, longer timers) are the only judges of
        freeriding. We record the event so experiments can count how
        often the network — not the protocol — lost a message.
        """
        self.tracer.record(self.now, "transport-failure", src=src, dst=dst)

    # ======================================================================
    # fault injection (the departure from the paper's ideal network)
    # ======================================================================
    def set_loss_rate(
        self, rate: float, node_id: "Optional[int]" = None, direction: "Optional[str]" = None
    ) -> None:
        """Change the Bernoulli packet-loss rate at runtime.

        ``node_id=None`` sets the default for every link; otherwise
        only that node's ``direction`` ("up", "down" or both). A
        positive rate on a system whose transport went direct at its
        first segment raises :class:`~repro.simnet.engine.SimulationError`
        (see :mod:`repro.simnet.transport`): set it before the run.
        """
        self.faults.set_loss_rate(rate, node_id=node_id, direction=direction)

    def stats_report(self) -> "Dict[str, int]":
        """Every protocol count plus each component's tallies, named by
        component: the ARQ's ``transport_*``, the network's delivery
        *and* drop ``net_*`` (loss must be visible, not silently
        absorbed) and the engine's ``sim_*``."""
        counts = dict(self.stats.counts)
        transport = self.transport
        for name in transport.TALLIES:
            tally = getattr(transport, name)
            if tally:  # absent while zero, like any count
                counts["transport_" + name] = tally
        report = dict(sorted(counts.items()))
        report["net_packets_delivered"] = self.network.packets_delivered
        report["net_bytes_delivered"] = self.network.bytes_delivered
        report["net_packets_dropped"] = self.network.packets_dropped
        report["net_bytes_dropped"] = self.network.bytes_dropped
        for reason, count in sorted(self.network.drops_by_reason.items()):
            report[f"net_dropped_{reason}"] = count
        # Per-pair visibility: which ordered path lost packets, and how
        # much topology delay each shaped pair accumulated (µs, so the
        # report stays integer-valued). Empty on a clean LAN run.
        for (src, dst), count in sorted(self.network.pair_drops.items()):
            report[f"net_pair_drop_{src}->{dst}"] = count
        for (src, dst), (packets, seconds) in sorted(self.network.pair_delays.items()):
            report[f"net_pair_delay_us_{src}->{dst}"] = int(round(seconds * 1e6))
            report[f"net_pair_delayed_{src}->{dst}"] = packets
        report.update(engine_counters(self.sim))
        return report

    # ======================================================================
    # public API
    # ======================================================================
    def bootstrap(self, count: int, behaviors: "Optional[Dict[int, object]]" = None) -> List[int]:
        """Create the initial population; returns node ids in creation
        order. ``behaviors`` maps *creation indices* to behaviour objects
        (freeriders/opponents); everyone else is honest.

        Bootstrap nodes skip the join handshake (there is no system to
        join yet) but still solve the assignment puzzle, so their IDs —
        and hence their groups — are outside their control.
        """
        behaviors = behaviors or {}
        created: List[int] = []
        for index in range(count):
            node_id = self._create_node(behaviors.get(index))
            created.append(node_id)
        self._start_blacklist_rounds()
        return created

    def join(self, behavior=None) -> int:
        """One node joins a running system via the Section IV-C handshake.

        The sponsor broadcasts the JOIN request (with the puzzle
        solution) to the covering group; every member re-verifies the
        puzzle before admitting; the READY message follows after the
        settle period T and the joiner stays relay-quarantined for 2T
        (enforced by :meth:`usable_as_relay`).
        """
        if not self.nodes:
            raise RuntimeError("bootstrap the system before join()")
        node_id = self._create_node(behavior)
        group = self.directory.group_of_node(node_id)
        node = self.nodes[node_id]
        request = JoinRequest(
            node_id=node_id,
            key_id=node.id_keypair.public.key_id,
            puzzle_vector=self._puzzle_vectors[node_id],
            id_public_key=node.id_keypair.public,
        )
        self._verify_join_at_members(request, group)
        # JOIN broadcast in the group + announcement on every channel.
        self.stats.add("join_broadcasts", max(1, len(group)) * self.config.num_rings)
        self.stats.add("join_channel_announcements", max(0, len(self.directory.groups) - 1))
        self.tracer.record(self.now, "join", node=node_id, gid=group.gid)
        return node_id

    def submit_join_request(self, request: JoinRequest) -> bool:
        """Process an externally crafted JOIN request (adversarial path).

        Every member of the covering group re-runs the puzzle check
        (paper: *"all nodes of the group verify that the ID of n is
        correct. If the ID is not correct, the request is ignored"*).
        Returns False — and admits nothing — on a forged solution.
        """
        group = self.directory.group_for_id(request.node_id)
        if not self._verify_join_at_members(request, group):
            return False
        self.directory.add_node(request.node_id, request.id_public_key)
        self.stats.add("join_broadcasts", max(1, len(group)) * self.config.num_rings)
        return True

    def _verify_join_at_members(self, request: JoinRequest, group) -> bool:
        """Each group member independently re-checks the puzzle."""
        verifiers = max(1, len(group))
        self.stats.add("join_puzzle_verifications", verifiers)
        valid = verify_puzzle(
            request.key_id, request.puzzle_vector, request.node_id, self.config.puzzle_bits
        )
        if not valid:
            self.stats.add("join_rejected_bad_puzzle")
            self.tracer.record(self.now, "join-rejected", node=request.node_id)
        return valid

    def _create_node(self, behavior=None) -> int:
        return self._instantiate_node(self._identities.next_material(), behavior)

    def _instantiate_node(self, material, behavior=None) -> int:
        """Wire one pre-drawn :class:`~repro.core.identity.NodeMaterial`
        into the system. Split out of :meth:`_create_node` so a shard
        (:mod:`repro.simnet.shard`) can host a subset of a population
        whose identities were drawn by the coordinator."""
        node_id = material.node_id
        self._puzzle_vectors[node_id] = material.puzzle.vector
        node = RacNode(
            node_id,
            self.config,
            self,
            material.id_keypair,
            material.pseudonym_keypair,
            behavior=behavior,
            rng=random.Random(material.node_seed),
        )
        self.nodes[node_id] = node
        self.pseudonym_keys[node_id] = material.pseudonym_keypair.public
        self.directory.add_node(node_id, material.id_keypair.public)
        self.transport.attach(node_id, node.on_message)
        node.start()
        self.stats.add("puzzle_attempts", material.puzzle.attempts)
        return node_id

    def leave(self, node_id: int) -> None:
        """Voluntary departure: announced, so no accusations follow.

        Removed exactly as an eviction is (the paper folds both into
        view updates), without a verdict.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.active:
            raise ValueError(f"node {node_id} is not an active member")
        self._remove(node_id)
        self.stats.add("voluntary_leaves")
        self.tracer.record(self.now, "left", node=node_id)

    def send(self, src: int, dst: int, payload: bytes) -> bool:
        """Queue an anonymous message from ``src`` to ``dst``.

        The sender only needs the destination's public pseudonym key
        and group id — both fetched from the application-level
        directory this system embodies (the paper's "application-
        dependent" key discovery).
        """
        node = self.nodes[src]
        key = self.pseudonym_keys[dst]
        gid = self.directory.group_of_node(dst).gid
        accepted = node.queue_message(key, gid, payload)
        if accepted:
            self._send_times.setdefault(payload, []).append(self.now)
        return accepted

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def close(self) -> None:
        """End a finished system's life, so that dropping it frees it by
        reference counting, not whenever the cycle collector next walks
        the oldest generation. Every owner that drops a system closes
        it: a shard-epoch cell, a judged :class:`~repro.scenario.SimRun`
        and the canonical copy a snapshot makes.

        Every back-edge is cut: each node is detached (which drops its
        transport handler, network handler and ARQ state), the calendar
        is emptied (its entries hold the nodes' and the system's bound
        methods), the ARQ's failure callback, the network's injector
        and an interposed ``unicast`` tap go. Idempotent; the system
        cannot run afterwards.
        """
        for node_id in self.nodes:
            self.transport.detach(node_id)
        sim = self.sim
        sim._queue.clear()
        sim._cancelled_pending = 0
        self.nodes.clear()
        self.transport.on_failure = None
        self.network.faults = None
        vars(self).pop("unicast", None)

    def delivered_messages(self, node_id: int) -> List[bytes]:
        return list(self.nodes[node_id].delivered)

    def active_node_ids(self) -> List[int]:
        return [nid for nid, node in self.nodes.items() if node.active]

    # ======================================================================
    # anonymous blacklist dissemination (Section IV-C "Evicting nodes")
    # ======================================================================
    def _start_blacklist_rounds(self) -> None:
        if self._blacklist_rounds_scheduled or self.config.blacklist_period <= 0:
            return
        self._blacklist_rounds_scheduled = True
        self.sim.schedule(self.config.blacklist_period, self._blacklist_round)

    def _blacklist_round(self) -> None:
        for gid in list(self.directory.groups):
            self._run_group_shuffle(gid)
        self.sim.schedule(self.config.blacklist_period, self._blacklist_round)

    def _run_group_shuffle(self, gid: int) -> None:
        group = self.directory.groups.get(gid)
        if group is None:
            return
        members = [self.nodes[n] for n in sorted(group.members) if n in self.nodes]
        members = [m for m in members if m.active]
        if len(members) < 2:
            return
        contributions = sorted(m.shuffle_contribution() for m in members)
        if not any(contributions):
            # Every blacklist is empty; the round would disseminate
            # nothing. (A real deployment still runs it — Lemma 4 — but
            # simulating an all-empty round changes no state.)
            return
        n = len(members)
        # Dissent v1's cost: n submissions, n sequential batches of n
        # items, n key reveals.
        self.stats.add("shuffle_messages", n * n + 2 * n)
        for member in members:
            member.ingest_shuffle_round(gid, n, contributions)
        self.stats.add("blacklist_rounds")
