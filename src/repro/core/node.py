"""The RAC node state machine (Section IV-C).

A node participates in one *group* and, transiently, in *channels*
(union of its group with a destination group). Its life is a loop of:

* one **origination slot** per ``send_interval``: a pending relay duty,
  a pending own message, or a noise message — so that, from outside,
  every node emits new broadcasts at the same constant rate;
* prompt **forwarding** of every first-seen broadcast to the successor
  on every ring of the broadcast's domain;
* an attempted **peel** of every first-seen broadcast (ID key → "I am a
  relay"; pseudonym key → "I am the destination");
* the three **misbehaviour checks** (relay, predecessor, rate), whose
  verdicts go to local blacklists and clear accusations;
* periodic participation in the anonymous **blacklist shuffle** (driven
  by :class:`repro.core.system.RacSystem`);
* the **replica rule** (§IV-C): X leaves the node's replica when (i) its
  own evidence against X completes — it then notifies every channel of
  X's group — or (ii) ⌊f·|D|⌋ + 1 members of X's group D notified it.

The node is glued to its execution substrate through the narrow
``env`` interface — the :class:`repro.core.environment.NodeEnvironment`
protocol — providing the clock, transport and a membership replica.
The discrete-event simulator (:class:`repro.core.system.RacSystem`) and
the asyncio/TCP live runtime
(:class:`repro.live.environment.LiveEnvironment`) both implement it;
unit tests stub it with a few lines.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..overlay.membership import MembershipView
    from .environment import NodeEnvironment

from ..crypto.hashes import message_id, sha256_int
from ..crypto.keys import KeyPair, PublicKey
from ..overlay.broadcast import FIRST_COPY, REPLAYED_COPY, BroadcastState, CopyKey
from .behavior import HonestBehavior
from .blacklist import BLACKLIST_SLOTS, Blacklist, EvictionTracker
from .config import RacConfig
from .messages import Accusation, Broadcast, DomainId, EvictionNotice, channel_domain, group_domain
from .monitor import PredecessorMonitor, RateMonitor, RelayMonitor
from .onion import build_noise, build_onion, peel, unwrap_wire
from .wire import encoded_size

__all__ = ["RacNode", "PendingSend"]


def _predecessor_threshold(env: "NodeEnvironment", config: RacConfig, domain: DomainId) -> int:
    """Followers that must accuse before a check-2/3 eviction in ``domain``."""
    return config.predecessor_accusation_threshold(len(env.domain_view(domain)))


class PendingSend:
    """One queued application message awaiting an origination slot."""

    __slots__ = ("destination_key", "destination_gid", "payload", "retries")

    def __init__(self, destination_key: PublicKey, destination_gid: int, payload: bytes) -> None:
        self.destination_key = destination_key
        self.destination_gid = destination_gid
        self.payload = payload
        self.retries = 0


class RacNode:
    """One protocol participant."""

    __slots__ = (
        "node_id",
        "config",
        "env",
        "id_keypair",
        "pseudonym_keypair",
        "behavior",
        "rng",
        "active",
        "joined_at",
        "_states",
        "_pred_monitors",
        "_ring_edges",
        "relay_monitor",
        "rate_monitor",
        "relays_blacklist",
        "pred_blacklists",
        "eviction_tracker",
        "send_queue",
        "_relay_duties",
        "_onion_payloads",
        "delivered",
        "delivered_at",
        "_control_seen",
        "_ticks_since_gc",
    )

    def __init__(
        self,
        node_id: int,
        config: RacConfig,
        env: "NodeEnvironment",
        id_keypair: KeyPair,
        pseudonym_keypair: KeyPair,
        behavior: "HonestBehavior | None" = None,
        rng: "random.Random | None" = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.env = env
        self.id_keypair = id_keypair
        self.pseudonym_keypair = pseudonym_keypair
        self.behavior = behavior if behavior is not None else HonestBehavior()
        self.rng = rng if rng is not None else random.Random()

        self.active = False
        self.joined_at = 0.0

        # Data-plane state, one entry per domain this node broadcasts in.
        self._states: Dict[DomainId, BroadcastState] = {}
        self._pred_monitors: Dict[DomainId, PredecessorMonitor] = {}
        #: domain -> ring -> (predecessor, first seen on that edge). New
        #: edges get a grace period before check 2 applies (see
        #: _arm_predecessor_check).
        self._ring_edges: Dict[DomainId, Dict[int, Tuple[int, float]]] = {}

        # Misbehaviour checking.
        self.relay_monitor = RelayMonitor()
        self.rate_monitor = RateMonitor(config.rate_window, config.rate_max_per_window)
        self.relays_blacklist = Blacklist()
        self.pred_blacklists: Dict[DomainId, Blacklist] = {}
        # Not a bound method: a tracker that pointed back at its node
        # would make every node a reference cycle.
        self.eviction_tracker = EvictionTracker(
            predecessor_threshold=partial(_predecessor_threshold, env, config),
            relay_threshold=config.relay_accusation_threshold,
        )

        # Origination queues.
        self.send_queue: Deque[PendingSend] = deque()
        self._relay_duties: Deque[Tuple[DomainId, bytes, int]] = deque()
        #: Onion-ref -> payload awaiting confirmation, for retransmission
        #: after a relay drop (§V-A2 case 1: the sender builds a new
        #: path, never reusing the blacklisted relay).
        self._onion_payloads: Dict[int, PendingSend] = {}

        # Deliveries.
        self.delivered: List[bytes] = []
        self.delivered_at: List[float] = []

        # Control-plane dedup.
        self._control_seen: Set[int] = set()

        self._ticks_since_gc = 0

    # -- plumbing -------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.env.stats.add(name, amount)

    def _trace(self, kind: str, **detail) -> None:
        self.env.tracer.record(self.env.now, kind, node=self.node_id, **detail)

    @property
    def gid(self) -> int:
        """Current group id (groups can split, so never cache it)."""
        return self.env.group_of(self.node_id)

    def group_domain_id(self) -> DomainId:
        return group_domain(self.gid)

    def state_for(self, domain: DomainId) -> BroadcastState:
        if domain not in self._states:
            self._states[domain] = BroadcastState()
        return self._states[domain]

    def pred_monitor_for(self, domain: DomainId) -> PredecessorMonitor:
        if domain not in self._pred_monitors:
            self._pred_monitors[domain] = PredecessorMonitor(self.config.predecessor_timeout)
        return self._pred_monitors[domain]

    def pred_blacklist_for(self, domain: DomainId) -> Blacklist:
        if domain not in self.pred_blacklists:
            self.pred_blacklists[domain] = Blacklist()
        return self.pred_blacklists[domain]

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Begin the origination loop at a staggered offset."""
        self.active = True
        self.joined_at = self.env.now
        offset = self.rng.uniform(0, self._interval())
        self.env.schedule(offset, self._tick)

    def stop(self) -> None:
        self.active = False

    def _interval(self) -> float:
        interval = self.env.send_interval_for(self.node_id)
        if interval is None or interval <= 0:
            raise ValueError("the send interval must be positive")
        return interval

    # -- application API -----------------------------------------------------------
    def queue_message(self, destination_key: PublicKey, destination_gid: int, payload: bytes) -> bool:
        """Queue an anonymous message; False if the queue is full."""
        if len(self.send_queue) >= self.config.send_queue_limit:
            return False
        self.send_queue.append(PendingSend(destination_key, destination_gid, payload))
        return True

    # -- origination loop -------------------------------------------------------
    def _tick(self) -> None:
        if not self.active:
            return
        self._run_checks()
        self.behavior.on_tick(self)
        self._flush_channel_duties()
        if self._backpressured():
            self._count("slot_deferred")
        else:
            self._originate_slot()
        self._maybe_collect_garbage()
        self.env.schedule(self._interval(), self._tick)

    def _backpressured(self) -> bool:
        """Closed-loop rate control: defer the slot while the uplink
        backlog exceeds the configured limit (keeps queues — and hence
        latency and timer risk — bounded when the configured interval
        overshoots the link capacity)."""
        limit = self.config.adaptive_backlog_limit
        if limit is None:
            return False
        return self.env.uplink_backlog_seconds(self.node_id) > limit

    def _maybe_collect_garbage(self) -> None:
        """Drop receipt records older than every active timer.

        Without this, a long-lived node's per-domain
        :class:`BroadcastState` grows one record per broadcast forever.
        The horizon is generous (4x the slowest check) so no pending
        deadline can reference a dropped record.
        """
        if self.config.state_gc_ticks <= 0:
            return
        self._ticks_since_gc += 1
        if self._ticks_since_gc < self.config.state_gc_ticks:
            return
        self._ticks_since_gc = 0
        horizon = self.env.now - 4 * max(
            self.config.relay_timeout, self.config.predecessor_timeout, self.config.rate_window
        )
        dropped = 0
        for state in self._states.values():
            dropped += state.forget_before(horizon)
        if dropped:
            self._count("state_records_collected", dropped)

    def _originate_slot(self) -> None:
        """Fill this interval's slot: group relay duty > data > noise."""
        group_dom = self.group_domain_id()
        if self._relay_duties and self._relay_duties[0][0] == group_dom:
            domain, wire, msg_id = self._relay_duties.popleft()
            self._originate(domain, wire, msg_id)
            self._count("relay_broadcasts")
            return
        if self.send_queue:
            if self._send_own_message(self.send_queue.popleft()):
                return
        if self.behavior.should_send_noise(self):
            wire = build_noise(self.config.message_size, self.rng)
            msg_id = message_id(unwrap_wire(wire))
            self._originate(group_dom, wire, msg_id)
            self._count("noise_broadcasts")
        else:
            self._count("noise_skipped")

    def _flush_channel_duties(self) -> None:
        """Channel re-broadcasts are not rate-limited (the constant-rate
        obligation applies to group rings, Section IV-C check 3)."""
        remaining: Deque[Tuple[DomainId, bytes, int]] = deque()
        while self._relay_duties:
            domain, wire, msg_id = self._relay_duties.popleft()
            if domain[0] == "channel":
                self._originate(domain, wire, msg_id)
                self._count("channel_broadcasts")
            else:
                remaining.append((domain, wire, msg_id))
        self._relay_duties = remaining

    def _send_own_message(self, pending: PendingSend) -> bool:
        """Build and launch an onion for one queued message."""
        my_gid = self.gid
        view = self.env.domain_view(group_domain(my_gid))
        candidates = [
            node_id
            for node_id in view.nodes_with_keys()
            if node_id != self.node_id
            and node_id not in self.relays_blacklist
            and self.env.usable_as_relay(node_id)
        ]
        if len(candidates) < self.config.num_relays:
            self.send_queue.appendleft(pending)  # retry when the group fills up
            self._count("send_deferred_no_relays")
            return False
        relays = self.rng.sample(candidates, self.config.num_relays)
        marker = pending.destination_gid if pending.destination_gid != my_gid else None
        onion = build_onion(
            pending.payload,
            [view.id_key(r) for r in relays],
            pending.destination_key,
            self.config.message_size,
            marker_gid=marker,
            rng=self.rng,
        )
        deadline = self.env.now + self.config.relay_timeout
        ref = self.relay_monitor.expect(onion.layer_msg_ids, relays, deadline)
        self._onion_payloads[ref] = pending
        self.env.schedule(self.config.relay_timeout, self._collect_relay_suspicions)
        first_id = onion.layer_msg_ids[0]
        self.relay_monitor.observe(first_id)
        self._originate(group_domain(my_gid), onion.first_wire, first_id)
        self._count("data_broadcasts")
        self._trace("onion-sent", relays=tuple(relays), marker=marker, msg_id=first_id)
        return True

    # -- broadcasting ---------------------------------------------------------------
    def _originate(self, domain: DomainId, wire: bytes, msg_id: int) -> None:
        """Inject a new message on all rings of ``domain``."""
        state = self.state_for(domain)
        if not state.on_receive(msg_id, None, self.env.now):
            return  # already circulating; do not replay
        view = self.env.domain_view(domain)
        if view is not None and self.node_id not in view.topology:
            view = None
        self._arm_predecessor_check(domain, msg_id, view)
        self._forward(domain, wire, msg_id, view)
        # A node can be chosen as a relay for a message addressed to
        # itself (the sender only knows the destination's pseudonym
        # key), so originated re-broadcasts must be peeled too.
        self._try_peel(domain, wire)

    def _forward(
        self, domain: DomainId, wire: bytes, msg_id: int, view: "Optional[MembershipView]"
    ) -> None:
        """Send one copy to the successor on every ring of the domain.

        ``view`` is the domain's membership view, resolved once per
        first-seen broadcast by the caller; None when this node is not
        (or no longer) on the domain's rings."""
        if view is None:
            self._count("forward_while_not_member")
            return
        node_id = self.node_id
        copies = max(1, self.behavior.replay_copies(self))
        successor_of = view.topology.successor
        unicast = self.env.unicast
        size = len(wire)
        for ring_index in range(view.num_rings):
            successor = successor_of(node_id, ring_index)
            if successor is None:
                continue
            for _ in range(copies):
                unicast(node_id, successor, Broadcast(domain, msg_id, wire, ring_index), size)
        self._count("broadcast_forwards")

    def _arm_predecessor_check(
        self,
        domain: DomainId,
        msg_id: int,
        view: "Optional[MembershipView]",
        from_key: "Optional[CopyKey]" = None,
    ) -> None:
        """Start check 2 for a first-seen message: every ring
        predecessor but ``from_key``, whose copy this is, owes one."""
        if view is None or not self.behavior.should_run_checks(self):
            return
        # A ring edge that just appeared (a join, or an eviction
        # re-stitching the ring) gets one predecessor_timeout of grace
        # before check 2 applies: a message can be in flight across a
        # topology change, in which case the new predecessor forwarded
        # it to its *old* successor and never owed us a copy. This is
        # the paper's join quarantine generalised to every edge change,
        # and mirrors the rate monitor's "not observed long enough to
        # judge" warm-up. On a lossy network the in-flight window
        # stretches to several RTOs, making the race routine rather
        # than rare.
        env = self.env
        now = env.now
        node_id = self.node_id
        timeout = self.config.predecessor_timeout
        predecessor_key = view.topology.predecessor_key
        edges = self._ring_edges.get(domain)
        if edges is None:
            edges = self._ring_edges[domain] = {}
        owed: Set[CopyKey] = set()
        for ring_index in range(view.num_rings):
            key = predecessor_key(node_id, ring_index)
            if key is None:
                continue
            known = edges.get(ring_index)
            if known is None or known[0] != key[0]:
                edges[ring_index] = (key[0], now)
                continue  # fresh edge: grace starts now
            if now - known[1] < timeout:
                continue  # edge still inside its grace period
            owed.add(key)
        owed.discard(from_key)
        # The ticket is the place in line a timer armed here would
        # take; the monitor asks for at most one real timer at a time,
        # and a message whose copies all arrive never needs one.
        fire_at = self.pred_monitor_for(domain).on_first_seen(
            msg_id, now, owed, env.reserve(timeout + 1e-9)
        )
        if fire_at is not None:
            env.schedule_reserved(fire_at, self._check_predecessors, domain)

    # -- receive path -----------------------------------------------------------------
    def on_message(self, src: int, payload) -> None:
        """Transport entry point."""
        if not self.active:
            return
        if isinstance(payload, Broadcast):
            self._handle_broadcast(src, payload)
        elif isinstance(payload, (Accusation, EvictionNotice)):
            self._handle_control_flood(payload)
        else:
            self._count("unknown_message")

    def _handle_broadcast(self, src: int, broadcast: Broadcast) -> None:
        domain = broadcast.domain
        view = self.env.domain_view(domain)
        if view is None or self.node_id not in view.topology:
            self._count("broadcast_outside_domain")
            return
        ring_index = broadcast.ring_index
        from_key = view.topology.predecessor_key(self.node_id, ring_index)
        if from_key is None or from_key[0] != src:
            # Not our predecessor on that ring: tolerated (stale topology
            # during reconfigurations) but never counted as a valid copy.
            self._count("broadcast_from_non_predecessor")
            return

        now = self.env.now
        msg_id = broadcast.msg_id
        state = self._states.get(domain)
        if state is None:
            state = self.state_for(domain)
        receipt = state.on_receive(msg_id, from_key, now)

        if receipt == FIRST_COPY and domain[0] == "group" and self.behavior.should_run_checks(self):
            # Check 3 counts *first copies*: an originator's direct copy
            # always reaches its successors before any two-hop path, so
            # first-copy counts are the one stream statistic that
            # attributes origination rates (ordinary per-stream counts
            # are uniform across predecessors — everyone forwards
            # everything). See DESIGN.md §3.
            self.rate_monitor.record(src, now)
        elif receipt == REPLAYED_COPY:
            self._accuse(src, domain, "replay", msg_id)

        self.relay_monitor.observe(msg_id)

        if receipt != FIRST_COPY:
            monitor = self._pred_monitors.get(domain)
            if monitor is not None:
                monitor.on_copy(msg_id, from_key)
            return

        self._arm_predecessor_check(domain, msg_id, view, from_key)
        if self.behavior.should_forward_broadcast(self, domain, msg_id, ring_index):
            self._forward(domain, broadcast.wire, msg_id, view)
        else:
            self._count("forward_skipped")
        self._try_peel(domain, broadcast.wire)

    def _try_peel(self, domain: DomainId, wire: bytes) -> None:
        # Channels carry only innermost layers, so nodes try only their
        # pseudonym key there (Section IV-C "Receiving a message"). Both
        # callers peel a message's first sight in its domain only, so a
        # trial that comes back opaque has nothing worth remembering.
        id_kp = self.id_keypair if domain[0] == "group" else None
        result = peel(
            wire, id_kp, self.pseudonym_keypair, self.config.message_size, rng=self.rng
        )
        if result.kind == "deliver":
            self.delivered.append(result.payload)
            self.delivered_at.append(self.env.now)
            self.env.on_delivered(self.node_id, result.payload)
            self._count("delivered")
            self._trace("delivered", size=len(result.payload))
        elif result.kind == "relay":
            if not self.behavior.should_relay_onion(self, result):
                self._count("relay_skipped")
                self._trace("relay-skipped", msg_id=result.inner_msg_id)
                return
            if result.channel_gid is not None and result.channel_gid != self.gid:
                target = channel_domain(self.gid, result.channel_gid)
            else:
                target = group_domain(self.gid)
            self._relay_duties.append((target, result.inner_wire, result.inner_msg_id))
            self._count("relay_duties")
            self._trace("relay-accepted", msg_id=result.inner_msg_id, target=target)

    # -- checks -> accusations ------------------------------------------------------------
    def _run_checks(self) -> None:
        if not self.behavior.should_run_checks(self):
            return
        self._sync_rate_tracking()
        cap = self._rate_cap()
        for verdict in self.rate_monitor.check(self.env.now, max_per_window=cap):
            self._accuse(verdict.predecessor, self.group_domain_id(), verdict.reason, None)

    def _rate_cap(self) -> int:
        """Legitimate first-copy count per predecessor per rate window.

        Per interval the group originates G broadcasts (plus up to L
        relay re-broadcasts per data message); first copies split
        roughly evenly across my R predecessors, with each
        predecessor's own originations always arriving first from it.
        The honest expectation is ~ G(L+2)/R per interval; a 4x slack
        plus a constant floor tolerates startup bursts and topology
        churn. A flooder originating many extra messages per slot
        concentrates first copies on its successors and blows through
        the cap (check 3's rate-high, Lemma 7).
        """
        view = self.env.domain_view(self.group_domain_id())
        group_size = len(view) if view is not None else 1
        per_window = self.config.rate_window / self._interval()
        expected = group_size * (self.config.num_relays + 1) / self.config.num_rings
        return int(expected * per_window * 3) + self.config.rate_max_per_window

    def _sync_rate_tracking(self) -> None:
        view = self.env.domain_view(self.group_domain_id())
        if self.node_id not in view:
            return
        current = set(view.predecessors(self.node_id))
        for stale in self.rate_monitor.tracked() - current:
            self.rate_monitor.untrack(stale)
        for fresh in current - self.rate_monitor.tracked():
            self.rate_monitor.track(fresh, self.env.now)

    def _collect_relay_suspicions(self) -> None:
        if not self.active:
            return
        for suspicion in self.relay_monitor.collect_expired(self.env.now):
            if self.relays_blacklist.add(suspicion.relay, "silent-relay", self.env.now):
                self._count("relay_blacklisted")
                self._trace("relay-blacklisted", relay=suspicion.relay, msg_id=suspicion.msg_id)
            self._retransmit_dropped_onion(suspicion.onion_ref)
        # Onions whose deadline passed without suspicion completed their
        # chain; their payload confirmations can be released.
        alive = self.relay_monitor.pending_refs()
        self._onion_payloads = {
            ref: p for ref, p in self._onion_payloads.items() if ref in alive
        }

    def _retransmit_dropped_onion(self, onion_ref: int) -> None:
        """Re-queue a payload whose relay chain broke, on a fresh path.

        The blacklisted relay is excluded by construction (relay
        selection skips the relays blacklist), so each opponent can
        burn a given sender at most once — the fN bound of §V-A2.
        """
        pending = self._onion_payloads.pop(onion_ref, None)
        if pending is None:
            return
        pending.retries += 1
        if pending.retries > self.config.max_send_retries:
            self._count("send_abandoned")
            return
        self.send_queue.appendleft(pending)
        self._count("send_retransmitted")

    def _check_predecessors(self, domain: DomainId) -> None:
        """The domain's one check-2 timer fired: judge what is still
        owed past its deadline, then re-arm for the next unsettled
        message. A stopped node lets the timer lapse."""
        if not self.active or not self.behavior.should_run_checks(self):
            return
        state = self.state_for(domain)
        monitor = self.pred_monitor_for(domain)
        view = self.env.domain_view(domain)
        for msg_id, owed in monitor.due(self.env.now):
            for pred, ring in PredecessorMonitor.missing(state, msg_id, owed):
                # Only accuse an edge that still exists: if the ring was
                # re-stitched mid-window (join or eviction), the frozen
                # predecessor legitimately forwarded the in-flight copy
                # to its *new* successor instead of us.
                if (
                    view is None
                    or self.node_id not in view
                    or view.topology.predecessor(self.node_id, ring) != pred
                ):
                    self._count("missing_copy_excused_topology")
                    continue
                self._accuse(pred, domain, "missing-copy", msg_id)
        fire_at = monitor.next_ticket()
        if fire_at is not None:
            self.env.schedule_reserved(fire_at, self._check_predecessors, domain)

    def _accuse(self, accused: int, domain: DomainId, reason: str, msg_id: "Optional[int]") -> None:
        """Blacklist locally and flood a clear accusation in the domain."""
        if accused == self.node_id or not self.behavior.should_run_checks(self):
            return
        blacklist = self.pred_blacklist_for(domain)
        if not blacklist.add(accused, reason, self.env.now):
            return  # already accused in this domain; one accusation each
        self._count(f"accusation_{reason}")
        self._trace("accusation", accused=accused, reason=reason, domain=domain)
        accusation = Accusation(self.node_id, accused, domain, reason, msg_id)
        self._ingest_accusation(accusation)
        self._flood_control(accusation, self.env.domain_view(domain))

    # -- control-plane flooding ------------------------------------------------------------
    def _control_id(self, message: "Accusation | EvictionNotice") -> int:
        domain_token = sha256_int(repr(message.domain))
        if type(message) is Accusation:
            return sha256_int(message.accuser, message.accused, domain_token, message.reason)
        return sha256_int("notice", message.accuser, message.accused, domain_token, message.kind)

    def _flood_control(self, message, view: "Optional[MembershipView]") -> None:
        """Send one control message to its domain successors in ``view``
        (callers manage the duplicate-suppression set)."""
        self._control_seen.add(self._control_id(message))
        if view is None or self.node_id not in view:
            return
        size = encoded_size(message)
        for ring_index in range(view.num_rings):
            successor = view.topology.successor(self.node_id, ring_index)
            if successor is not None:
                self.env.unicast(self.node_id, successor, message, size)
        self._count("control_forwards")

    def _handle_control_flood(self, message: "Accusation | EvictionNotice") -> None:
        if self._control_id(message) in self._control_seen:
            return
        self._flood_control(message, self.env.domain_view(message.domain))
        if type(message) is Accusation:
            self._ingest_accusation(message)
        else:
            self._ingest_notice(message)

    def _ingest_accusation(self, accusation: Accusation) -> None:
        view = self.env.domain_view(accusation.domain)
        if view is None:
            return
        is_follower = (
            accusation.accused in view
            and accusation.accuser in view.successor_set(accusation.accused)
        )
        if accusation.reason == "rate-high":
            candidate = self.eviction_tracker.record_rate_high_accusation(
                accusation.accuser, accusation.accused, accusation.domain, is_follower
            )
            if candidate is not None:
                # Grace period: a flood's propagation tree blames every
                # upstream hop; only the unexcused root gets evicted.
                self.env.schedule(
                    self.config.rate_window / 2,
                    self._finalize_rate_high_eviction,
                    candidate,
                    accusation.domain,
                )
            return
        verdict = self.eviction_tracker.record_predecessor_accusation(
            accusation.accuser, accusation.accused, accusation.domain, is_follower
        )
        if verdict is not None:
            self._convict(verdict, accusation.domain, "predecessor")

    def _finalize_rate_high_eviction(self, accused: int, domain: DomainId) -> None:
        if not self.active:
            return
        if self.eviction_tracker.is_excused_rate_high(accused, domain):
            self._count("rate_high_excused")
            return
        if self.eviction_tracker.confirm_eviction(accused):
            self._convict(accused, domain, "rate-high")

    # -- shuffle participation ------------------------------------------------------------
    def shuffle_contribution(self) -> "Tuple[int, ...]":
        """This node's (possibly dishonest) relay blacklist for the round,
        cut to the round's fixed :data:`BLACKLIST_SLOTS` (Lemma 4)."""
        return tuple(self.behavior.blacklist_share(self))[:BLACKLIST_SLOTS]

    def ingest_shuffle_round(self, group_gid: int, group_size: int, lists: "List[Tuple[int, ...]]") -> None:
        """Tally one anonymous blacklist round (Section IV-C eviction)."""
        for evicted in self.eviction_tracker.record_relay_round(group_size, lists):
            self._convict(evicted, group_domain(group_gid), "relay")

    # -- the replica rule ------------------------------------------------------------------
    def _convict(self, accused: int, domain: DomainId, kind: str) -> None:
        """Rule (i): own evidence is complete. If that takes the accused
        out of the replica, notify every channel of its group as the
        replica held them, so a removal that dissolves the group still
        notifies. No in-group flood: every correct member holds the same
        accusations or shuffle output and convicts on its own."""
        self._count("eviction_evidence_complete")
        channels = self.env.evict(accused, self.node_id, domain, kind)
        for channel, view in (channels or {}).items():
            self._flood_control(EvictionNotice(self.node_id, accused, channel, kind), view)

    def _ingest_notice(self, notice: EvictionNotice) -> None:
        """Rule (ii): remove the accused once ⌊f·|D|⌋ + 1 distinct
        members of its group D, as this replica holds D, notified."""
        env, accused = self.env, notice.accused
        if not env.holds(accused):
            self._count("eviction_notice_stale")
            return
        gid = env.group_of(accused)
        view = env.domain_view(group_domain(gid))
        if notice.accuser not in view:
            self._count("eviction_notice_outsider")
            return
        notifiers = self.eviction_tracker.record_notice(notice.accuser, accused)
        if notifiers is None:
            self._count("eviction_notice_repeated")
            return
        if notifiers >= self.config.relay_accusation_threshold(len(view)):
            env.evict(accused, notice.accuser, group_domain(gid), notice.kind)

    # -- membership events ------------------------------------------------------------
    def on_evicted(self, node_id: int) -> None:
        """Another node was evicted: purge all monitoring state."""
        self.rate_monitor.untrack(node_id)
        for monitor in self._pred_monitors.values():
            monitor.forget_node(node_id)
        self.eviction_tracker.forget(node_id)
