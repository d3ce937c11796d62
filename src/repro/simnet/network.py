"""Star-topology network model (nodes interconnected by a router).

The paper's setting (Sections III and VI-A): *"we simulate a network of
nodes interconnected by a router. Nodes are connected to the router
using 1 Gb/s links. We use this ideal network configuration as it
allows evaluating the maximum throughput that each protocol can
achieve."*

The model therefore captures exactly two resources:

* every node's **uplink** (node → router) serializes its outgoing
  traffic at the link rate;
* every node's **downlink** (router → node) serializes its incoming
  traffic at the link rate.

The router itself is non-blocking (an ideal switch). Each transfer
additionally pays a small fixed propagation delay. A packet costs two
events on an overtaking-free star (leave the uplink; last byte off the
downlink) unless an edge of the fault plan falls inside its flight from
the router or it queues behind a packet with one, three otherwise (its
arrival at the downlink is an event of its own; see
:attr:`StarNetwork.overtaking_free`). Payloads are opaque Python objects
carried next to an explicit byte size, so protocol simulations can ship
rich objects while the network only accounts for their declared wire
size.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from .engine import SimulationError, Simulator
from .faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topo uses nothing from simnet)
    from ..topo.model import TopologyModel

__all__ = ["Packet", "Link", "StarNetwork", "GBPS", "DEFAULT_PROPAGATION_DELAY"]

#: 1 Gb/s in bits per second — the paper's link rate.
GBPS = 1_000_000_000

#: Propagation delay per hop; small and identical for everyone, so it
#: shifts latency without affecting saturation throughput.
DEFAULT_PROPAGATION_DELAY = 50e-6


class Packet:
    """A message in flight: opaque payload plus accounted wire size."""

    __slots__ = ("src", "dst", "payload", "size_bytes")

    def __init__(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("packets must have a positive size")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, payload={self.payload!r}, "
            f"size_bytes={self.size_bytes!r})"
        )


class Link:
    """A serializing FIFO link of fixed bandwidth.

    The link keeps a *busy-until* horizon: a packet handed over at time
    ``t`` starts serializing at ``max(t, busy_until)`` and finishes one
    transmission time later. This is the standard fluid model for a
    store-and-forward interface and reproduces saturation behaviour
    without per-byte events.
    """

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "busy_until",
        "bytes_carried",
        "packets_carried",
        "busy_seconds",
        "rate_factor",
        "hop_until",
    )

    def __init__(self, sim: Simulator, bandwidth_bps: float) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.busy_until = 0.0
        self.bytes_carried = 0
        self.packets_carried = 0
        #: Seconds this link has spent (or is committed to spend)
        #: serializing, accumulated per transfer at the rate the
        #: transfer actually got. ``bytes_carried / bandwidth_bps``
        #: undercounts whenever ``rate_factor`` dipped mid-run, so
        #: utilization is accounted in time, not bytes.
        self.busy_seconds = 0.0
        #: Fault-injection hook: the effective rate is ``bandwidth_bps *
        #: rate_factor``. 1.0 is a healthy link; degradation windows
        #: (:class:`repro.simnet.faults.FaultInjector`) scale it down.
        self.rate_factor = 1.0
        #: As a star's downlink: when the last packet the router sent
        #: here on the general hop arrives. Until then the link's
        #: backlog is not yet known at the router.
        self.hop_until = -inf

    def transmission_time(self, size_bytes: int) -> float:
        return size_bytes * 8 / (self.bandwidth_bps * self.rate_factor)

    def utilization(self) -> float:
        """Fraction of elapsed time this link spent transmitting.

        Counts committed serialization *time* (each transfer at its
        effective, possibly degraded rate) minus the backlog still
        scheduled beyond ``now``, so a link that ran at half rate for a
        while reports the busy share it really had rather than the
        byte count divided by the nominal bandwidth.
        """
        if self.sim.now <= 0:
            return 0.0
        pending = max(0.0, self.busy_until - self.sim.now)
        busy = max(0.0, self.busy_seconds - pending)
        return min(1.0, busy / self.sim.now)

    def enqueue(self, size_bytes: int, deliver: Callable[..., None], *args: Any) -> float:
        """Schedule ``deliver(*args)`` for when the last byte leaves the
        link.

        Returns the departure time. ``deliver`` should be a bound method
        (not a closure) so that snapshots of a mid-transfer simulation
        stay picklable (see :mod:`repro.simnet.snapshot`).
        """
        start = max(self.sim.now, self.busy_until)
        departure = start + self.transmission_time(size_bytes)
        self.busy_until = departure
        self.bytes_carried += size_bytes
        self.packets_carried += 1
        self.busy_seconds += departure - start
        self.sim.schedule_at(departure, deliver, *args)
        return departure

    def queue_delay(self) -> float:
        """Current backlog, in seconds of serialization time."""
        return max(0.0, self.busy_until - self.sim.now)


class StarNetwork:
    """N nodes, each with a dedicated uplink and downlink to one router.

    Protocol stacks attach one receive handler per node with
    :meth:`attach`; :meth:`send` moves a packet across
    uplink → (ideal router) → downlink and invokes the destination's
    handler when the last byte arrives.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = GBPS,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
        propagation_jitter: float = 0.0,
        jitter_seed: int = 0,
        faults: "Optional[FaultInjector]" = None,
        topology: "Optional[TopologyModel]" = None,
    ) -> None:
        """``propagation_jitter`` adds a uniform [0, jitter] extra delay
        per packet — the step beyond the paper's ideal network that the
        robustness tests use (timers must tolerate real variance).
        ``faults`` plugs in packet loss / outages / partitions / link
        degradation (:class:`repro.simnet.faults.FaultInjector`); None
        keeps the paper's lossless router. ``topology`` plugs in a WAN
        model (:class:`repro.topo.model.TopologyModel`): per-node access
        bandwidth sizes each attached Link, and the model's pair delay
        is added when scheduling router→downlink propagation. None (or
        the ``lan`` preset, whose delays are all zero and whose access
        classes inherit ``bandwidth_bps``) reproduces the paper's star
        byte for byte."""
        import random as _random

        if propagation_jitter < 0:
            raise ValueError("jitter cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.propagation_jitter = propagation_jitter
        self._jitter_rng = _random.Random(jitter_seed)
        self.faults = faults
        if faults is not None:
            faults.bind(self)
        self.topology = topology
        #: True when packets reach a downlink in the order they left
        #: the router (one propagation delay for everyone: no jitter, no
        #: topology pair delay); ``_at_router`` then does the downlink's
        #: arithmetic itself for every packet whose flight is clear of
        #: the fault plan's edges. A fact about what the network was
        #: given: derived here, written nowhere else.
        self.overtaking_free = propagation_jitter == 0 and (
            topology is None or not any(map(any, topology.latency))
        )
        #: node_id → topology slot, assigned in attach (creation) order —
        #: the same index convention fault plans use. A node that
        #: detaches and re-attaches (crash restart) keeps its slot.
        self._topo_slots: Dict[int, int] = {}
        self._attach_count = 0
        self.uplinks: Dict[int, Link] = {}
        self.downlinks: Dict[int, Link] = {}
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        #: Drop counts keyed by cause: "loss", "outage", "partition",
        #: "detached". Loss would otherwise be invisible to summaries —
        #: only deliveries used to be counted.
        self.drops_by_reason: Dict[str, int] = {}
        #: (src, dst) → drops on that ordered pair; which path loses
        #: traffic matters once pairs stop being interchangeable.
        self.pair_drops: Dict[Tuple[int, int], int] = {}
        #: (src, dst) → (packets shaped, total topology delay seconds);
        #: only populated when a topology adds nonzero pair delay.
        self.pair_delays: Dict[Tuple[int, int], "list"] = {}

    # -- membership ----------------------------------------------------------
    def attach(self, node_id: int, handler: Callable[[Packet], None]) -> None:
        """Connect a node to the router and register its receive handler."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} is already attached")
        up_bps = down_bps = self.bandwidth_bps
        if self.topology is not None:
            slot = self._topo_slots.get(node_id)
            if slot is None:
                # A newcomer takes the next creation index; a re-attach
                # (crash restart) keeps its old slot and must not burn
                # a fresh one.
                slot = self._topo_slots[node_id] = self.topology.slot(self._attach_count)
                self._attach_count += 1
            up_bps = self.topology.up_bps(slot, self.bandwidth_bps)
            down_bps = self.topology.down_bps(slot, self.bandwidth_bps)
        self.uplinks[node_id] = Link(self.sim, up_bps)
        self.downlinks[node_id] = Link(self.sim, down_bps)
        self._handlers[node_id] = handler

    def topology_slot(self, node_id: int) -> "Optional[int]":
        """The node's topology slot (None when no topology is set)."""
        return self._topo_slots.get(node_id)

    def detach(self, node_id: int) -> None:
        """Disconnect a node; packets in flight to it are dropped."""
        self._handlers.pop(node_id, None)
        self.uplinks.pop(node_id, None)
        self.downlinks.pop(node_id, None)

    def attached(self, node_id: int) -> bool:
        return node_id in self._handlers

    @property
    def node_ids(self) -> "list[int]":
        return list(self._handlers)

    # -- data path -----------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Transmit a packet from ``src`` to ``dst``.

        Raises :class:`~repro.simnet.engine.SimulationError` if the
        source is not attached (sending from a detached node is a
        protocol-stack bug, not a network condition); silently drops —
        but counts — packets whose destination detaches before
        delivery (the sender cannot know, exactly as with a real
        crashed peer).
        """
        uplink = self.uplinks.get(src)
        if uplink is None:
            raise SimulationError(f"node {src} is not attached and cannot send")
        packet = Packet(src, dst, payload, size_bytes)
        # Link.enqueue, spelled out: the per-packet path pays for one
        # frame per hop, not for a chain of one-line delegations.
        sim = self.sim
        start = uplink.busy_until
        if start < sim.now:
            start = sim.now
        departure = start + size_bytes * 8 / (uplink.bandwidth_bps * uplink.rate_factor)
        uplink.busy_until = departure
        uplink.bytes_carried += size_bytes
        uplink.packets_carried += 1
        uplink.busy_seconds += departure - start
        sim.schedule_at(departure, self._at_router, packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.packets_dropped += 1
        self.bytes_dropped += packet.size_bytes
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        pair = (packet.src, packet.dst)
        self.pair_drops[pair] = self.pair_drops.get(pair, 0) + 1

    def _at_router(self, packet: Packet) -> None:
        src = packet.src
        dst = packet.dst
        downlink = self.downlinks.get(dst)
        if downlink is None:
            # Destination left the system while the packet flew.
            self._drop(packet, "detached")
            return
        faults = self.faults
        if faults is not None:
            reason = faults.drop_reason(src, dst)
            if reason is not None:
                self._drop(packet, reason)
                return
        delay = self.propagation_delay
        if self.propagation_jitter:
            delay += self._jitter_rng.uniform(0, self.propagation_jitter)
        if self.topology is not None:
            extra = self.topology.pair_delay(
                self._topo_slots.get(src, 0), self._topo_slots.get(dst, 0)
            )
            if extra:
                delay += extra
                pair = (src, dst)
                entry = self.pair_delays.get(pair)
                if entry is None:
                    entry = self.pair_delays[pair] = [0, 0.0]
                entry[0] += 1
                entry[1] += extra
        # The downlink is captured *now* (router time): a destination
        # that detaches during propagation still had its link absorb the
        # transfer, and _deliver then counts the drop. Passed as an event
        # argument rather than a closure so snapshots stay picklable.
        sim = self.sim
        if not self.overtaking_free:
            sim.schedule(delay, self._enqueue_downlink, downlink, packet)
            return
        now = sim.now
        arrival = now + delay
        # A link's rate may change at an edge of the fault plan, so a
        # packet with one in [now, arrival] (drop_reason has just
        # brought quiet_from <= now < quiet_until up to date) learns its
        # rate at arrival, and so does every packet behind it until its
        # downlink has nothing left on the general hop.
        if faults is not None and faults.edges and (
            now <= downlink.hop_until or faults.quiet_from == now or arrival >= faults.quiet_until
        ):
            downlink.hop_until = arrival
            sim.schedule(delay, self._enqueue_downlink, downlink, packet)
            return
        # Nobody can reach this downlink before this packet does, so
        # _enqueue_downlink's arithmetic (keep the two in step) is done
        # here with ``arrival`` for its ``sim.now``, and _deliver gets
        # the float schedule_at would have rounded to at ``arrival``.
        size_bytes = packet.size_bytes
        start = downlink.busy_until
        if start < arrival:
            start = arrival
        departure = start + size_bytes * 8 / (downlink.bandwidth_bps * downlink.rate_factor)
        downlink.busy_until = departure
        downlink.bytes_carried += size_bytes
        downlink.packets_carried += 1
        downlink.busy_seconds += departure - start
        sim.schedule_from(arrival, departure, self._deliver, packet)

    def _enqueue_downlink(self, downlink: Link, packet: Packet) -> None:
        # The general hop: with jitter or pair delay the arrival order,
        # and across a fault-plan edge the link's rate, is only known at
        # arrival. Link.enqueue again (see send); the same lines stand
        # in _at_router for the overtaking-free star.
        sim = self.sim
        size_bytes = packet.size_bytes
        start = downlink.busy_until
        if start < sim.now:
            start = sim.now
        departure = start + size_bytes * 8 / (downlink.bandwidth_bps * downlink.rate_factor)
        downlink.busy_until = departure
        downlink.bytes_carried += size_bytes
        downlink.packets_carried += 1
        downlink.busy_seconds += departure - start
        sim.schedule_at(departure, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        handler = self._handlers.get(packet.dst)
        if handler is None:
            self._drop(packet, "detached")
            return
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        handler(packet)
