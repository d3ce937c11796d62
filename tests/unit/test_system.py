"""Unit tests for RacSystem's plumbing (env interface, eviction, seeds)."""

import pytest

from repro.core.config import RacConfig
from repro.core.messages import channel_domain, group_domain
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
        rate_window=1.0,
        blacklist_period=0.0,
        puzzle_bits=2,
    )
    base.update(overrides)
    return RacConfig(**base)


class TestBootstrap:
    def test_creates_requested_population(self):
        system = RacSystem(config(), seed=1)
        nodes = system.bootstrap(10)
        assert len(nodes) == len(set(nodes)) == 10
        assert set(system.directory.node_ids) == set(nodes)

    def test_each_node_has_keys_and_is_attached(self):
        system = RacSystem(config(), seed=2)
        nodes = system.bootstrap(5)
        for node_id in nodes:
            assert node_id in system.pseudonym_keys
            assert system.network.attached(node_id)

    def test_behaviors_assigned_by_index(self):
        from repro.freeride.strategies import NoNoise

        lazy = NoNoise()
        system = RacSystem(config(), seed=3)
        nodes = system.bootstrap(5, behaviors={2: lazy})
        assert system.nodes[nodes[2]].behavior is lazy
        assert system.nodes[nodes[0]].behavior is not lazy


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = RacSystem(config(), seed=42)
        b = RacSystem(config(), seed=42)
        assert a.bootstrap(8) == b.bootstrap(8)

    def test_same_seed_same_simulation(self):
        results = []
        for _ in range(2):
            system = RacSystem(config(), seed=43)
            nodes = system.bootstrap(8)
            system.run(1.0)
            system.send(nodes[0], nodes[4], b"replay me")
            system.run(3.0)
            results.append(
                (system.sim.events_processed, tuple(sorted(system.stats.as_dict().items())))
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        a = RacSystem(config(), seed=44)
        b = RacSystem(config(), seed=45)
        assert a.bootstrap(8) != b.bootstrap(8)

    def test_a_joiner_is_the_next_identity_after_a_shuffle_drew(self):
        """Blacklist rounds run after bootstrap; a later join must still
        mint the identity a live cluster's factory hands out next, or
        the two substrates admit different nodes under one plan."""
        from repro.core.identity import build_population
        from repro.scenario import Scenario, prepare

        scenario = Scenario(
            nodes=10, horizon=8.0, regime="detect", config=dict(group_min=3, group_max=12),
            deviants={3: "silent-relay"},
        )
        run = prepare(scenario)
        run.run_to(scenario.horizon)
        assert run.system.stats.value("blacklist_rounds")  # a round draws from no stream
        expected = build_population(scenario.configuration(), 11, seed=0)[10].node_id
        assert run.system.join() == expected


class TestDomainViews:
    def test_group_view(self):
        system = RacSystem(config(), seed=5)
        nodes = system.bootstrap(6)
        gid = system.group_of(nodes[0])
        view = system.domain_view(group_domain(gid))
        assert set(nodes) == view.members

    def test_unknown_group_is_none(self):
        system = RacSystem(config(), seed=6)
        system.bootstrap(4)
        assert system.domain_view(group_domain(999)) is None

    def test_unknown_channel_is_none(self):
        system = RacSystem(config(), seed=7)
        system.bootstrap(4)
        assert system.domain_view(channel_domain(1, 999)) is None

    def test_unknown_domain_kind_rejected(self):
        system = RacSystem(config(), seed=8)
        with pytest.raises(ValueError):
            system.domain_view(("galaxy", 1))


class TestSaturationInterval:
    def test_formula(self):
        system = RacSystem(config(), seed=9)
        # R * G * M * 8 / C
        expected = 3 * 10 * 2048 * 8 / 1e9
        assert system.config.saturation_interval(10) == pytest.approx(expected)

    def test_interval_override_wins(self):
        system = RacSystem(config(send_interval=0.123), seed=10)
        nodes = system.bootstrap(4)
        assert system.send_interval_for(nodes[0]) == 0.123

    def test_derived_interval_includes_margin(self):
        system = RacSystem(config(send_interval=None), seed=11)
        nodes = system.bootstrap(4)
        expected = system.config.saturation_interval(4) * system.config.saturation_margin
        assert system.send_interval_for(nodes[0]) == pytest.approx(expected)


class TestEvictionPlumbing:
    def test_eviction_is_idempotent(self):
        system = RacSystem(config(), seed=12)
        nodes = system.bootstrap(6)
        system.run(0.5)
        assert system.evict(nodes[0], nodes[1], group_domain(1), "predecessor") == {}
        assert system.evict(nodes[0], nodes[2], group_domain(1), "relay") is None
        assert list(system.evicted) == [nodes[0]]
        assert system.stats.value("evictions") == 1

    def test_evicted_node_is_fully_detached(self):
        system = RacSystem(config(), seed=13)
        nodes = system.bootstrap(6)
        system.run(0.5)
        system.evict(nodes[0], nodes[1], group_domain(1), "predecessor")
        assert not system.nodes[nodes[0]].active
        assert not system.network.attached(nodes[0])
        assert nodes[0] not in system.directory.node_ids

    def test_unicast_to_evicted_is_dropped(self):
        system = RacSystem(config(), seed=14)
        nodes = system.bootstrap(6)
        system.run(0.5)
        system.evict(nodes[0], nodes[1], group_domain(1), "predecessor")
        system.unicast(nodes[2], nodes[0], "anything", 64)  # must not raise
        system.run(0.5)

    def test_active_node_ids_excludes_evicted(self):
        system = RacSystem(config(), seed=15)
        nodes = system.bootstrap(6)
        system.run(0.5)
        system.evict(nodes[0], nodes[1], group_domain(1), "predecessor")
        assert nodes[0] not in system.active_node_ids()
        assert len(system.active_node_ids()) == 5


class TestSendAfterSplit:
    def test_a_send_after_a_split_reaches_the_moved_destination(self):
        """``send`` resolves the destination's group when it is called:
        a destination that a join split into a new group since the
        sender learned its key still gets the message (an application
        that cached the group id would route at the old group)."""
        system = RacSystem(
            config(group_min=3, group_max=6, relay_timeout=60.0, predecessor_timeout=60.0,
                   rate_window=60.0),
            seed=99,
        )
        nodes = system.bootstrap(6)
        system.run(1.0)
        before = {n: system.group_of(n) for n in nodes}
        system.join()
        moved = [n for n in nodes if system.group_of(n) != before[n]]
        assert moved, "the join did not split the group"
        src = next(n for n in nodes if n not in moved)
        assert system.send(src, moved[0], b"post-split")
        system.run(8.0)
        assert system.delivered_messages(moved[0]) == [b"post-split"]
        assert not system.evicted
