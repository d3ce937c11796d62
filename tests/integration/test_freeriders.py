"""Integration tests: freerider strategies against a live population.

These are the experimental counterpart of the Section V-B lemmas: each
detectable deviation must lead to eviction of the deviator — and never
of an honest bystander.
"""

import pytest

from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.freeride.strategies import (
    ForwardDropper,
    FullFreerider,
    LyingShuffler,
    NoNoise,
    SilentRelay,
)


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
        assumed_opponent_fraction=0.1,
    )
    base.update(overrides)
    return RacConfig(**base)


def run_with_traffic(system, honest, until, stop_when=None):
    """Ring of flows among honest nodes, advancing in 0.6 s slices."""
    step = 0
    while system.now < until:
        for i, src in enumerate(honest):
            system.send(src, honest[(i + 1) % len(honest)], b"flow-%d" % step)
        system.run(0.6)
        step += 1
        if stop_when is not None and stop_when():
            return


class TestForwardDropper:
    def test_detected_and_evicted_quickly(self):
        system = RacSystem(config(), seed=3)
        nodes = system.bootstrap(14, behaviors={3: ForwardDropper(1.0)})
        freerider = nodes[3]
        system.run(4.0)
        assert freerider in system.evicted
        assert system.evicted[freerider]["kind"] == "predecessor"
        assert [n for n in system.evicted if n != freerider] == []

    def test_probabilistic_dropper_also_caught(self):
        system = RacSystem(config(), seed=4)
        nodes = system.bootstrap(14, behaviors={2: ForwardDropper(0.5, seed=9)})
        freerider = nodes[2]
        system.run(10.0)
        assert freerider in system.evicted
        assert [n for n in system.evicted if n != freerider] == []


class TestSilentRelay:
    def test_evicted_via_anonymous_shuffle(self):
        system = RacSystem(config(), seed=5)
        nodes = system.bootstrap(14, behaviors={0: SilentRelay()})
        silent = nodes[0]
        honest = [n for n in nodes if n != silent]
        system.run(1.2)
        run_with_traffic(system, honest, until=30.0, stop_when=lambda: silent in system.evicted)
        assert silent in system.evicted
        assert system.evicted[silent]["kind"] == "relay"
        assert [n for n in system.evicted if n != silent] == []

    def test_senders_blacklist_before_eviction(self):
        system = RacSystem(config(blacklist_period=30.0), seed=6)
        nodes = system.bootstrap(14, behaviors={0: SilentRelay()})
        silent = nodes[0]
        honest = [n for n in nodes if n != silent]
        system.run(1.2)
        run_with_traffic(system, honest, until=8.0)
        # Without shuffle rounds yet, eviction cannot happen...
        assert silent not in system.evicted
        # ...but individual senders already blacklisted the relay.
        blacklisters = [
            n for n in honest if silent in system.nodes[n].relays_blacklist
        ]
        assert blacklisters


class TestNoNoise:
    def test_forwarding_no_noise_freerider_evades_detection(self):
        """Reproduction finding (DESIGN.md §3): a freerider
        that skips noise but keeps forwarding cannot be attributed by
        stream statistics — everyone forwards everything, so its
        stream differs from an honest one by a single first-copy per
        interval, which drowns in the steal-share variance. Lemma 6's
        detection claim only holds for *silent* streams. The deviation
        is also nearly profitless: noise fills only otherwise-idle
        slots."""
        system = RacSystem(config(), seed=7)
        nodes = system.bootstrap(12, behaviors={1: NoNoise()})
        lazy = nodes[1]
        system.run(6.0)
        assert lazy not in system.evicted
        assert system.evicted == {}

    def test_fully_silent_node_is_accused_and_evicted(self):
        """The case Lemma 6 *does* cover: a node whose stream goes
        silent (crash or total freeriding) trips rate-low and the
        completeness check at every successor."""
        system = RacSystem(config(), seed=77)
        nodes = system.bootstrap(12)
        silent = nodes[2]
        system.run(2.0)
        system.nodes[silent].stop()  # crash: no forwards, no noise
        system.run(5.0)
        assert silent in system.evicted
        assert [n for n in system.evicted if n != silent] == []


class TestFullFreerider:
    def test_evicted(self):
        system = RacSystem(config(), seed=8)
        nodes = system.bootstrap(14, behaviors={4: FullFreerider()})
        freerider = nodes[4]
        system.run(6.0)
        assert freerider in system.evicted
        assert [n for n in system.evicted if n != freerider] == []


class TestUndetectableDeviations:
    def test_lying_shuffler_gains_nothing_and_survives(self):
        # Lemma 4: lying in the shuffle is not *detectable* (fixed-size
        # messages), and the analysis shows it is not *profitable*; the
        # simulation confirms the liar is not evicted (no false
        # positives from the mechanism).
        system = RacSystem(config(), seed=9)
        nodes = system.bootstrap(12, behaviors={5: LyingShuffler()})
        system.run(6.0)
        assert system.evicted == {}

    def test_delivery_unharmed_by_single_freerider(self):
        # Freeriding must not break the service for the honest nodes:
        # after the dropper's eviction, messages still flow.
        system = RacSystem(config(), seed=10)
        nodes = system.bootstrap(14, behaviors={3: ForwardDropper(1.0)})
        freerider = nodes[3]
        honest = [n for n in nodes if n != freerider]
        system.run(5.0)
        assert freerider in system.evicted
        assert system.send(honest[0], honest[5], b"after the purge")
        system.run(4.0)
        assert system.delivered_messages(honest[5]) == [b"after the purge"]
