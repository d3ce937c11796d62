"""Integration tests: active opponent behaviours (Section V-A2)."""

import pytest

from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.freeride.adversary import FalseAccuser, Flooder, PathDropOpponent, ReplayAttacker


def config(**overrides):
    base = dict(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.05,
        relay_timeout=0.8,
        predecessor_timeout=0.5,
        rate_window=1.0,
        blacklist_period=1.0,
        puzzle_bits=2,
    )
    base.update(overrides)
    return RacConfig(**base)


class TestReplayAttacker:
    def test_replay_detected_and_evicted(self):
        system = RacSystem(config(), seed=21)
        nodes = system.bootstrap(12, behaviors={2: ReplayAttacker()})
        attacker = nodes[2]
        system.run(5.0)
        assert attacker in system.evicted
        assert [n for n in system.evicted if n != attacker] == []

    def test_replay_accusations_logged(self):
        system = RacSystem(config(), seed=22)
        system.bootstrap(12, behaviors={2: ReplayAttacker()})
        system.run(5.0)
        assert system.stats.value("accusation_replay") >= 1

    def test_copies_validation(self):
        with pytest.raises(ValueError):
            ReplayAttacker(copies=1)


class TestFalseAccuser:
    def test_single_accuser_cannot_evict(self):
        # The threshold is t+1 = 2 followers here, and only followers
        # count — one lying opponent achieves nothing (§V-A2 case 2).
        probe = RacSystem(config(), seed=23)
        victims = probe.bootstrap(12)
        victim = victims[5]
        system = RacSystem(config(), seed=23)
        nodes = system.bootstrap(12, behaviors={3: FalseAccuser(victim)})
        # Same seed => same ids; victim is an honest node.
        assert nodes == victims
        system.run(6.0)
        assert victim not in system.evicted
        assert system.evicted == {}

    def test_two_colluding_followers_meet_threshold_only_if_followers(self):
        # Put two false accusers in: eviction happens only when both
        # happen to be ring-followers of the victim; assert the protocol
        # never evicts on non-follower accusations.
        probe = RacSystem(config(), seed=24)
        ids = probe.bootstrap(12)
        victim = ids[0]
        system = RacSystem(config(), seed=24)
        nodes = system.bootstrap(
            12, behaviors={4: FalseAccuser(victim), 7: FalseAccuser(victim)}
        )
        system.run(6.0)
        if victim in system.evicted:
            view = system.domain_view(("group", system.evicted[victim]["gid"]))
            # can't check post-eviction topology; instead assert the
            # accusers were followers at bootstrap time
            followers = probe.domain_view(("group", probe.group_of(victim))).topology.successor_set(victim)
            assert {nodes[4], nodes[7]} <= followers
        # Either way, no honest cascade.
        assert all(n == victim for n in system.evicted)


class TestFlooder:
    def test_rate_high_detection(self):
        system = RacSystem(config(), seed=25)
        nodes = system.bootstrap(12, behaviors={1: Flooder(extra_per_tick=60)})
        flooder = nodes[1]
        system.run(8.0)
        assert flooder in system.evicted
        assert [n for n in system.evicted if n != flooder] == []

    def test_flooder_validation(self):
        with pytest.raises(ValueError):
            Flooder(extra_per_tick=0)


class TestPathDropOpponent:
    def test_burned_with_senders_like_a_freerider(self):
        system = RacSystem(config(), seed=26)
        nodes = system.bootstrap(14, behaviors={0: PathDropOpponent()})
        opponent = nodes[0]
        honest = [n for n in nodes if n != opponent]
        system.run(1.2)
        step = 0
        while system.now < 30.0 and opponent not in system.evicted:
            for i, src in enumerate(honest):
                system.send(src, honest[(i + 1) % len(honest)], b"f-%d" % step)
            system.run(0.6)
            step += 1
        assert opponent in system.evicted
        assert system.evicted[opponent]["kind"] == "relay"
