"""Unit tests for the behaviour hooks and freerider strategies."""

import pytest

from repro.core.behavior import HonestBehavior
from repro.freeride.adversary import FalseAccuser, Flooder, PathDropOpponent, ReplayAttacker
from repro.freeride.strategies import (
    ForwardDropper,
    FullFreerider,
    LyingShuffler,
    NoChecks,
    NoNoise,
    SilentRelay,
)


class _FakeNode:
    """Just enough node for the behaviour hooks."""

    class _Blacklist:
        @staticmethod
        def members():
            return (7, 9)

    relays_blacklist = _Blacklist()


class TestHonestBehavior:
    def test_all_hooks_comply(self):
        behavior = HonestBehavior()
        node = _FakeNode()
        assert behavior.should_forward_broadcast(node, ("group", 1), 1, 0)
        assert behavior.should_relay_onion(node, None)
        assert behavior.should_send_noise(node)
        assert behavior.should_run_checks(node)
        assert behavior.replay_copies(node) == 1
        assert behavior.blacklist_share(node) == (7, 9)
        assert behavior.on_tick(node) is None


class TestStrategies:
    def test_forward_dropper_probability(self):
        dropper = ForwardDropper(0.5, seed=1)
        node = _FakeNode()
        outcomes = [
            dropper.should_forward_broadcast(node, ("group", 1), i, 0) for i in range(200)
        ]
        dropped = outcomes.count(False)
        assert 60 < dropped < 140  # ~50%
        assert dropper.drops == dropped

    def test_forward_dropper_validation(self):
        with pytest.raises(ValueError):
            ForwardDropper(1.5)

    def test_silent_relay_counts_refusals(self):
        silent = SilentRelay()
        node = _FakeNode()
        assert not silent.should_relay_onion(node, None)
        assert not silent.should_relay_onion(node, None)
        assert silent.refused == 2

    def test_no_noise_still_forwards(self):
        lazy = NoNoise()
        node = _FakeNode()
        assert not lazy.should_send_noise(node)
        assert lazy.should_forward_broadcast(node, ("group", 1), 1, 0)

    def test_no_checks_still_relays(self):
        behavior = NoChecks()
        node = _FakeNode()
        assert not behavior.should_run_checks(node)
        assert behavior.should_relay_onion(node, None)

    def test_lying_shuffler_sends_empty(self):
        assert LyingShuffler().blacklist_share(_FakeNode()) == ()

    def test_full_freerider_composes_everything(self):
        freerider = FullFreerider()
        node = _FakeNode()
        assert not freerider.should_forward_broadcast(node, ("group", 1), 1, 0)
        assert not freerider.should_relay_onion(node, None)
        assert not freerider.should_send_noise(node)
        assert not freerider.should_run_checks(node)
        assert freerider.blacklist_share(node) == ()


class TestAdversaries:
    def test_replay_attacker_copies(self):
        assert ReplayAttacker(3).replay_copies(_FakeNode()) == 3

    def test_replay_attacker_validation(self):
        with pytest.raises(ValueError):
            ReplayAttacker(1)

    def test_flooder_validation(self):
        with pytest.raises(ValueError):
            Flooder(0)

    def test_path_drop_counts(self):
        opponent = PathDropOpponent()
        opponent.should_relay_onion(_FakeNode(), None)
        assert opponent.dropped == 1

    def test_false_accuser_tracks_victim(self):
        accuser = FalseAccuser(victim=123, reason="replay")
        assert accuser.victim == 123
        assert accuser.reason == "replay"
        assert accuser.accusations_sent == 0

    def test_names_are_distinct(self):
        names = {
            cls().name if cls not in (ForwardDropper, FalseAccuser, ReplayAttacker, Flooder)
            else None
            for cls in (SilentRelay, NoNoise, NoChecks, LyingShuffler, FullFreerider, PathDropOpponent)
        }
        names.discard(None)
        assert len(names) == 6
