"""Unit tests for RacNode against a stub environment.

The stub gives full control over time, topology and message capture, so
each node-level rule is testable without the packet simulator.
"""

import random

import pytest

from repro.core.config import RacConfig
from repro.core.messages import Accusation, Broadcast, group_domain
from repro.core.node import RacNode
from repro.core.onion import build_onion
from repro.crypto.keys import KeyPair
from repro.overlay.membership import MembershipView
from repro.simnet.stats import StatsRegistry
from repro.simnet.trace import Tracer


class StubEnv:
    """A minimal deterministic node environment."""

    def __init__(self, config, member_ids):
        self.config = config
        self.now = 0.0
        self.stats = StatsRegistry()
        self.tracer = Tracer(enabled=True)
        self.sent = []  # (src, dst, payload, size)
        self.scheduled = []  # (time, fn, args)
        self.reserved = 0  # tickets drawn
        self.evictions = []
        self.delivered = []
        self.view = MembershipView(config.num_rings)
        self.keys = {}
        for member in member_ids:
            keypair = KeyPair.generate("sim", seed=member)
            self.keys[member] = keypair
            self.view.add(member, keypair.public)

    # env interface --------------------------------------------------------
    def schedule(self, delay, fn, *args):
        self.scheduled.append((self.now + delay, fn, args))

    def reserve(self, delay):
        self.reserved += 1
        return (self.now + delay, self.reserved)

    def schedule_reserved(self, ticket, fn, *args):
        self.scheduled.append((ticket[0], fn, args))

    def unicast(self, src, dst, payload, size):
        self.sent.append((src, dst, payload, size))

    def group_of(self, node_id):
        return 1

    def domain_view(self, domain):
        return self.view if domain == group_domain(1) else None

    def send_interval_for(self, node_id):
        return 0.1

    def usable_as_relay(self, node_id):
        return True

    def on_delivered(self, node_id, payload):
        self.delivered.append((node_id, payload))

    def report_eviction(self, reporter, accused, domain, kind):
        self.evictions.append((reporter, accused, kind))

    # helpers ------------------------------------------------------------
    def fire_due(self):
        """Run every action scheduled up to `now` (repeatedly)."""
        progressed = True
        while progressed:
            progressed = False
            for entry in sorted(self.scheduled, key=lambda e: e[0]):
                if entry[0] <= self.now and entry in self.scheduled:
                    self.scheduled.remove(entry)
                    entry[1](*entry[2])
                    progressed = True


def make_node(member_ids=(1, 2, 3, 4, 5, 6), node_id=1, behavior=None):
    config = RacConfig(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.1,
        relay_timeout=1.0,
        predecessor_timeout=0.5,
        rate_window=1.0,
        puzzle_bits=2,
    )
    env = StubEnv(config, member_ids)
    node = RacNode(
        node_id,
        config,
        env,
        env.keys[node_id],
        KeyPair.generate("sim", seed=1000 + node_id),
        behavior=behavior,
        rng=random.Random(7),
    )
    node.active = True
    return node, env


def deliver_broadcast(node, env, wire, msg_id, ring_index=None):
    """Hand a broadcast to the node from its ring predecessor(s)."""
    domain = group_domain(1)
    rings = range(env.view.num_rings) if ring_index is None else [ring_index]
    for ring in rings:
        pred = env.view.topology.predecessor(node.node_id, ring)
        node.on_message(pred, Broadcast(domain, msg_id, wire, ring))


class TestForwarding:
    def test_first_copy_forwarded_on_all_rings(self):
        node, env = make_node()
        from repro.core.onion import build_noise, unwrap_wire
        from repro.crypto.hashes import message_id

        wire = build_noise(2048, random.Random(1))
        msg_id = message_id(unwrap_wire(wire))
        deliver_broadcast(node, env, wire, msg_id, ring_index=0)
        forwarded = [s for s in env.sent if isinstance(s[2], Broadcast)]
        assert len(forwarded) == env.view.num_rings
        for _src, dst, bc, _size in forwarded:
            assert env.view.topology.successor(node.node_id, bc.ring_index) == dst

    def test_duplicate_copies_not_reforwarded(self):
        node, env = make_node()
        from repro.core.onion import build_noise, unwrap_wire
        from repro.crypto.hashes import message_id

        wire = build_noise(2048, random.Random(1))
        msg_id = message_id(unwrap_wire(wire))
        deliver_broadcast(node, env, wire, msg_id)  # copies on all rings
        forwarded = [s for s in env.sent if isinstance(s[2], Broadcast)]
        assert len(forwarded) == env.view.num_rings  # once, not 3x

    def test_broadcast_from_non_predecessor_ignored(self):
        node, env = make_node()
        from repro.core.onion import build_noise, unwrap_wire
        from repro.crypto.hashes import message_id

        wire = build_noise(2048, random.Random(1))
        msg_id = message_id(unwrap_wire(wire))
        ring = 0
        pred = env.view.topology.predecessor(node.node_id, ring)
        stranger = next(m for m in env.view.members if m not in (node.node_id, pred))
        node.on_message(stranger, Broadcast(group_domain(1), msg_id, wire, ring))
        assert env.sent == []
        assert node.counters.get("broadcast_from_non_predecessor") == 1


class TestDeliveryAndRelaying:
    def build_onion_for(self, env, relays, dest_pseudonym, marker=None):
        return build_onion(
            b"payload!",
            [env.keys[r].public for r in relays],
            dest_pseudonym.public,
            2048,
            marker_gid=marker,
            rng=random.Random(2),
        )

    def test_destination_delivers(self):
        node, env = make_node()
        onion = build_onion(
            b"payload!",
            [env.keys[2].public],
            node.pseudonym_keypair.public,
            2048,
            rng=random.Random(2),
        )
        # Peel the relay layer externally, then hand the node the result.
        from repro.core.onion import peel, unwrap_wire
        from repro.crypto.hashes import message_id

        result = peel(onion.first_wire, env.keys[2], None, 2048, rng=random.Random(3))
        deliver_broadcast(node, env, result.inner_wire, result.inner_msg_id, ring_index=0)
        assert node.delivered == [b"payload!"]
        assert env.delivered == [(node.node_id, b"payload!")]

    def test_relay_queues_duty(self):
        node, env = make_node()
        onion = self.build_onion_for(env, [node.node_id], KeyPair.generate("sim", seed=999))
        from repro.crypto.hashes import message_id
        from repro.core.onion import unwrap_wire

        deliver_broadcast(node, env, onion.first_wire, onion.layer_msg_ids[0], ring_index=0)
        assert node.counters.get("relay_duties") == 1
        # The duty fills the next origination slot instead of noise.
        node._originate_slot()
        assert node.counters.get("relay_broadcasts") == 1
        assert node.counters.get("noise_broadcasts") is None

    def test_replay_accusation_on_duplicate_ring_copy(self):
        node, env = make_node()
        from repro.core.onion import build_noise, unwrap_wire
        from repro.crypto.hashes import message_id

        wire = build_noise(2048, random.Random(1))
        msg_id = message_id(unwrap_wire(wire))
        deliver_broadcast(node, env, wire, msg_id, ring_index=0)
        deliver_broadcast(node, env, wire, msg_id, ring_index=0)  # replay
        accusations = [s for s in env.sent if isinstance(s[2], Accusation)]
        assert accusations
        assert accusations[0][2].reason == "replay"


class TestOwnSends:
    def test_send_builds_and_monitors(self):
        node, env = make_node()
        dest = KeyPair.generate("sim", seed=999)
        assert node.queue_message(dest.public, 1, b"msg")
        node._originate_slot()
        assert node.counters.get("data_broadcasts") == 1
        assert len(node.relay_monitor) == 1

    def test_send_defers_without_enough_relays(self):
        node, env = make_node(member_ids=(1, 2))  # only one candidate, L=2
        dest = KeyPair.generate("sim", seed=999)
        node.queue_message(dest.public, 1, b"msg")
        node._originate_slot()
        assert node.counters.get("send_deferred_no_relays") == 1
        assert len(node.send_queue) == 1  # requeued for retry

    def test_blacklisted_relays_not_chosen(self):
        node, env = make_node()
        for candidate in (2, 3):
            node.relays_blacklist.add(candidate, "silent-relay", 0.0)
        dest = KeyPair.generate("sim", seed=999)
        node.queue_message(dest.public, 1, b"msg")
        node._originate_slot()
        sent = [s for s in env.sent if isinstance(s[2], Broadcast)]
        assert sent  # sent despite blacklist: 4,5,6 still available
        chosen = node.env.tracer.of_kind("onion-sent")
        # behaviour verified indirectly: no crash and message sent

    def test_queue_limit(self):
        node, env = make_node()
        node.config.send_queue_limit = 2
        dest = KeyPair.generate("sim", seed=999)
        assert node.queue_message(dest.public, 1, b"a")
        assert node.queue_message(dest.public, 1, b"b")
        assert not node.queue_message(dest.public, 1, b"c")


class TestAccusationHandling:
    def test_accusation_flood_deduplicated(self):
        node, env = make_node()
        accusation = Accusation(2, 3, group_domain(1), "missing-copy", None)
        node.on_message(2, accusation)
        first_flood = len([s for s in env.sent if isinstance(s[2], Accusation)])
        node.on_message(4, accusation)
        second_flood = len([s for s in env.sent if isinstance(s[2], Accusation)])
        assert first_flood > 0
        assert second_flood == first_flood  # not re-flooded

    def test_threshold_reports_eviction(self):
        node, env = make_node()
        victim = 3
        followers = env.view.successor_set(victim)
        threshold = node.config.predecessor_accusation_threshold(len(env.view))
        accusers = list(followers)[:threshold]
        for accuser in accusers:
            node.on_message(
                accuser, Accusation(accuser, victim, group_domain(1), "missing-copy", None)
            )
        assert env.evictions and env.evictions[0][1] == victim

    def test_non_follower_accusations_ignored(self):
        node, env = make_node()
        victim = 3
        non_followers = [m for m in env.view.members if m not in env.view.successor_set(victim)]
        for accuser in non_followers:
            if accuser == victim:
                continue
            node.on_message(
                accuser, Accusation(accuser, victim, group_domain(1), "missing-copy", None)
            )
        assert env.evictions == []


def _noise(seed):
    from repro.core.onion import build_noise, unwrap_wire
    from repro.crypto.hashes import message_id

    wire = build_noise(2048, random.Random(seed))
    return wire, message_id(unwrap_wire(wire))


class TestPredecessorCheck:
    """Check 2 through the node: tickets per first sight, one timer per
    domain, verdicts only for copies still owed at the deadline."""

    def _past_grace(self):
        node, env = make_node()
        deliver_broadcast(node, env, *_noise(0))  # records the ring edges
        env.now = 0.6  # predecessor_timeout is 0.5: the edges' grace is over
        return node, env, node.pred_monitor_for(group_domain(1))

    def _check_timers(self, env):
        return [entry for entry in env.scheduled if entry[1].__name__ == "_check_predecessors"]

    def test_fresh_edges_owe_nothing(self):
        node, env = make_node()
        deliver_broadcast(node, env, *_noise(0), ring_index=0)
        monitor = node.pred_monitor_for(group_domain(1))
        assert env.reserved == 1  # the place in line is taken all the same
        assert (len(monitor), monitor.unsettled(), self._check_timers(env)) == (0, 0, [])

    def test_complete_copies_settle_without_a_verdict(self):
        node, env, monitor = self._past_grace()
        for seed in (1, 2, 3):
            deliver_broadcast(node, env, *_noise(seed), ring_index=0)
            env.now += 0.01
        assert env.reserved == 4 and monitor.unsettled() == 3
        assert len(self._check_timers(env)) == 1  # armed for the oldest only
        for seed in (1, 2, 3):
            for ring in (1, 2):
                deliver_broadcast(node, env, *_noise(seed), ring_index=ring)
        assert (len(monitor), monitor.unsettled()) == (0, 0)
        env.now = 2.0
        env.fire_due()  # the timer finds its message settled
        assert self._check_timers(env) == []
        assert not any(key.startswith("accusation") for key in node.counters)

    def test_copy_still_owed_at_the_deadline_is_accused(self):
        node, env, monitor = self._past_grace()
        first, second = _noise(1), _noise(2)
        deliver_broadcast(node, env, *first, ring_index=0)
        deliver_broadcast(node, env, *first, ring_index=1)  # ring 2 never delivers
        env.now = 0.8
        deliver_broadcast(node, env, *second, ring_index=0)
        deliver_broadcast(node, env, *second, ring_index=2)  # ring 1 never delivers
        env.now = 0.6 + 0.5 + 1e-6
        env.fire_due()
        silent = env.view.topology.predecessor(node.node_id, 2)
        accusations = [p for _s, _d, p, _n in env.sent if isinstance(p, Accusation)]
        assert {(a.accused, a.reason, a.msg_id) for a in accusations} == {
            (silent, "missing-copy", first[1])
        }
        # re-armed at the second message's own ticket, not before
        assert [round(entry[0], 6) for entry in self._check_timers(env)] == [1.3]
        assert monitor.unsettled() == 1

    def test_eviction_of_the_debtor_settles_the_debt(self):
        node, env, monitor = self._past_grace()
        deliver_broadcast(node, env, *_noise(1), ring_index=0)
        debtors = {env.view.topology.predecessor(node.node_id, ring) for ring in (1, 2)}
        for debtor in debtors:
            node.on_evicted(debtor)
        assert (len(monitor), monitor.unsettled()) == (0, 0)


class TestEvictionCleanup:
    def test_on_evicted_purges_state(self):
        node, env = make_node()
        node.rate_monitor.track(3, 0.0)
        node.on_evicted(3)
        assert 3 not in node.rate_monitor.tracked()


class TestPeelDeduplication:
    def test_repeated_opaque_peel_is_skipped(self):
        node, env = make_node()
        from repro.core.onion import build_noise, unwrap_wire
        from repro.crypto.hashes import message_id

        wire = build_noise(2048, random.Random(1))
        msg_id = message_id(unwrap_wire(wire))
        domain = group_domain(1)
        node._try_peel(domain, wire, msg_id)
        assert env.stats.value("peel_skipped_duplicate") == 0
        node._try_peel(domain, wire, msg_id)
        node._try_peel(domain, wire, msg_id)
        assert env.stats.value("peel_skipped_duplicate") == 2

    def test_deliverable_peels_are_never_cached(self):
        # Only *opaque* outcomes may be memoised: relay/deliver peels
        # consume RNG (re-padding) and have side effects.
        node, env = make_node()
        from repro.core.onion import build_onion, unwrap_wire
        from repro.crypto.hashes import message_id

        onion = build_onion(
            b"hello",
            [env.keys[2].public],
            node.pseudonym_keypair.public,
            node.config.message_size,
            rng=random.Random(5),
        )
        relay_result = env.keys[2].unseal(unwrap_wire(onion.first_wire))
        # Extract the inner blob addressed to node 1's pseudonym key.
        from repro.core import onion as onion_mod

        parsed = onion_mod._parse_relay_layer(
            relay_result, node.config.message_size, random.Random(6)
        )
        wire = parsed.inner_wire
        msg_id = parsed.inner_msg_id
        domain = group_domain(1)
        node._try_peel(domain, wire, msg_id)
        node._try_peel(domain, wire, msg_id)
        assert len(node.delivered) == 2
        assert env.stats.value("peel_skipped_duplicate") == 0

    def test_opaque_cache_cleared_by_gc(self):
        node, env = make_node()
        from repro.core.onion import build_noise, unwrap_wire
        from repro.crypto.hashes import message_id

        wire = build_noise(2048, random.Random(1))
        msg_id = message_id(unwrap_wire(wire))
        node._try_peel(group_domain(1), wire, msg_id)
        assert node._opaque_peels
        env.now += 10_000.0
        node._ticks_since_gc = node.config.state_gc_ticks - 1  # due next tick
        node._maybe_collect_garbage()
        assert not node._opaque_peels
