"""Integration tests: membership churn under live traffic.

Joins, voluntary leaves, crashes, and the split/dissolve lifecycle —
all while the constant-rate broadcast machinery keeps running. The
invariant throughout: the protocol stays delivery-capable and never
evicts an honest live node.
"""

import pytest

from repro.core.config import RacConfig
from repro.core.messages import EvictionNotice
from repro.core.node import RacNode
from repro.core.system import RacSystem


def config(**overrides):
    base = dict(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.05,
        relay_timeout=1.0,
        predecessor_timeout=0.5,
        rate_window=1.2,
        blacklist_period=2.0,
        puzzle_bits=2,
        join_settle_time=0.3,
    )
    base.update(overrides)
    return RacConfig(**base)


class TestVoluntaryLeave:
    def test_leave_causes_no_accusations(self):
        system = RacSystem(config(), seed=51)
        nodes = system.bootstrap(12)
        system.run(2.0)
        system.leave(nodes[3])
        system.run(4.0)
        assert system.evicted == {}
        assert system.stats.value("voluntary_leaves") == 1

    def test_delivery_works_after_leave(self):
        system = RacSystem(config(), seed=52)
        nodes = system.bootstrap(12)
        system.run(2.0)
        system.leave(nodes[3])
        system.run(1.0)
        survivors = [n for n in nodes if n != nodes[3]]
        assert system.send(survivors[0], survivors[5], b"still here")
        system.run(4.0)
        assert system.delivered_messages(survivors[5]) == [b"still here"]

    def test_double_leave_rejected(self):
        system = RacSystem(config(), seed=53)
        nodes = system.bootstrap(8)
        system.run(1.0)
        system.leave(nodes[0])
        with pytest.raises(ValueError):
            system.leave(nodes[0])


class TestCrash:
    def test_crashed_node_is_purged_by_the_protocol(self):
        system = RacSystem(config(), seed=54)
        nodes = system.bootstrap(12)
        system.run(2.0)
        system.nodes[nodes[2]].stop()  # silent crash, no announcement
        system.run(5.0)
        assert nodes[2] in system.evicted
        assert [n for n in system.evicted if n != nodes[2]] == []

    def test_two_simultaneous_crashes(self):
        system = RacSystem(config(), seed=55)
        nodes = system.bootstrap(14)
        system.run(2.0)
        system.nodes[nodes[1]].stop()
        system.nodes[nodes[7]].stop()
        system.run(8.0)
        assert nodes[1] in system.evicted and nodes[7] in system.evicted
        assert set(system.evicted) == {nodes[1], nodes[7]}


    def test_crashes_in_two_groups_notify_every_other_group(self, monkeypatch):
        """Three groups; a crash in one, then in another. Each eviction's
        notice reaches every member of every other group, and the
        evictions are the ones (and at the instants) the run had when
        the verdict was applied globally and the notices only counted."""
        notified = {}
        real_on_message = RacNode.on_message

        def on_message(node, src, payload):
            if isinstance(payload, EvictionNotice):
                notified.setdefault(payload.accused, set()).add(node.node_id)
            real_on_message(node, src, payload)

        monkeypatch.setattr(RacNode, "on_message", on_message)
        system = RacSystem(config(group_min=3, group_max=8), seed=60)
        nodes = system.bootstrap(16)
        members = {gid: set(group.members) for gid, group in system.directory.groups.items()}
        assert len(members) == 3
        system.run(2.0)
        system.nodes[nodes[2]].stop()
        system.run(1.5)
        system.nodes[nodes[0]].stop()
        system.run(5.0)
        assert {n: (e["at"], e["by"]) for n, e in system.evicted.items()} == {
            nodes[2]: (2.510598480841205, nodes[3]),
            nodes[0]: (4.003688060383521, nodes[10]),
        }
        for accused, info in system.evicted.items():
            others = set().union(*(m for gid, m in members.items() if gid != info["gid"]))
            assert others - {nodes[0], nodes[2]} <= notified[accused]
        # The one shared replica already dropped the accused: every
        # notice is flooded on and counted, never applied twice.
        assert system.stats.value("eviction_notice_stale") >= sum(map(len, notified.values()))


class TestJoinChurn:
    def test_sequential_joins_under_traffic(self):
        system = RacSystem(config(), seed=56)
        nodes = system.bootstrap(8)
        system.run(1.0)
        joiners = [system.join() for _ in range(4)]
        system.run(1.5)
        # Everyone (old and new) is ring-connected and reachable.
        for joiner in joiners:
            assert system.send(nodes[0], joiner, b"hi %d" % (joiner % 100))
        system.run(6.0)
        for joiner in joiners:
            assert len(system.delivered_messages(joiner)) == 1
        assert system.evicted == {}

    def test_joiner_can_send_after_quarantine(self):
        system = RacSystem(config(), seed=57)
        nodes = system.bootstrap(8)
        system.run(1.0)
        joiner = system.join()
        system.run(2 * 0.3 + 0.5)
        assert system.send(joiner, nodes[0], b"from the newcomer")
        system.run(4.0)
        assert system.delivered_messages(nodes[0]) == [b"from the newcomer"]


class TestSplitDissolveUnderTraffic:
    def test_join_storm_triggers_splits_and_stays_consistent(self):
        system = RacSystem(config(group_min=3, group_max=8), seed=58)
        system.bootstrap(8)
        system.run(0.5)
        for _ in range(10):
            system.join()
            system.run(0.2)
        assert len(system.directory.groups) >= 2
        system.directory.check_invariants()
        system.run(3.0)
        assert system.evicted == {}

    def test_leave_storm_triggers_dissolve(self):
        system = RacSystem(config(group_min=4, group_max=10), seed=59)
        nodes = system.bootstrap(22)
        groups_before = len(system.directory.groups)
        assert groups_before >= 2
        system.run(1.0)
        # Empty out the smallest group below smin.
        sizes = system.directory.sizes()
        victim_gid = min(sizes, key=sizes.get)
        victims = sorted(system.directory.groups[victim_gid].members)
        for node_id in victims[: len(victims) - 2]:
            system.leave(node_id)
            system.run(0.2)
        assert victim_gid not in system.directory.groups
        system.directory.check_invariants()
        system.run(2.0)
        # The rehomed survivors are still reachable.
        survivor = victims[-1]
        sender = next(n for n in nodes if system.nodes[n].active and n != survivor)
        assert system.send(sender, survivor, b"welcome to your new group")
        system.run(5.0)
        assert system.delivered_messages(survivor) == [b"welcome to your new group"]
