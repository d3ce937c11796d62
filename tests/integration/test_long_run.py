"""Long-run hygiene: state GC, stability, and preset configurations."""

import pytest

from repro.core.behavior import HonestBehavior
from repro.core.config import RacConfig
from repro.core.system import RacSystem


class TestPresets:
    def test_paper_preset_matches_section_vi(self):
        config = RacConfig.paper()
        assert (config.num_relays, config.num_rings) == (5, 7)
        assert config.message_size == 10_000

    def test_small_preset_overridable(self):
        config = RacConfig.small(num_rings=5, blacklist_period=0.0)
        assert config.num_rings == 5
        assert config.blacklist_period == 0.0
        assert config.num_relays == 2


class TestStateGarbageCollection:
    def test_records_are_collected_in_long_runs(self):
        config = RacConfig.small(state_gc_ticks=30, blacklist_period=0.0)
        system = RacSystem(config, seed=91)
        system.bootstrap(8)
        system.run(8.0)  # ~160 ticks/node, several GC cycles past the horizon
        assert system.stats.value("state_records_collected") > 0
        # Live state stays bounded: each node retains only the records
        # inside the GC horizon, not one per broadcast ever seen.
        per_node_records = [
            sum(len(state) for state in node._states.values())
            for node in system.nodes.values()
        ]
        total_broadcasts = system.stats.value("noise_broadcasts")
        assert max(per_node_records) < total_broadcasts

    def test_gc_disabled_keeps_everything(self):
        config = RacConfig.small(state_gc_ticks=0, blacklist_period=0.0)
        system = RacSystem(config, seed=92)
        system.bootstrap(6)
        system.run(3.0)
        assert system.stats.value("state_records_collected") == 0

    def test_gc_does_not_break_delivery_or_checks(self):
        config = RacConfig.small(state_gc_ticks=30, blacklist_period=0.0)
        system = RacSystem(config, seed=93)
        nodes = system.bootstrap(10)
        system.run(4.0)  # GC has run repeatedly
        system.send(nodes[0], nodes[5], b"after the sweep")
        system.run(3.0)
        assert system.delivered_messages(nodes[5]) == [b"after the sweep"]
        assert system.evicted == {}


class _QuietOnCue(HonestBehavior):
    """Honest until ``quiet`` is set, then originates nothing more."""

    quiet = False

    def should_send_noise(self, node) -> bool:
        return not self.quiet


def _predecessor_monitors(system):
    return [m for node in system.nodes.values() for m in node._pred_monitors.values()]


class TestPredecessorCheckHygiene:
    """Check 2 keeps state for what is still owed, not for what was seen."""

    def test_monitors_hold_nothing_once_traffic_stops(self):
        # 20 Mb/s links: copies trail each other by milliseconds, so
        # mid-run there are always deadlines some pair has yet to settle.
        config = RacConfig.small(link_bandwidth_bps=20e6, blacklist_period=0.0)
        system = RacSystem(config, seed=95)
        behaviors = {index: _QuietOnCue() for index in range(12)}
        system.bootstrap(12, behaviors=behaviors)
        system.run(1.5)
        monitors = _predecessor_monitors(system)
        assert len(monitors) == 12
        assert sum(len(m) for m in monitors) > 0
        assert all(m.unsettled() <= len(m) for m in monitors)
        seen = system.stats.value("noise_broadcasts")
        assert seen > 300
        # nothing is kept per message seen (the old monitor never forgot
        # an id it had checked): a handful of deadlines, not hundreds
        assert max(len(m) for m in monitors) < 30

        for behavior in behaviors.values():
            behavior.quiet = True
        system.run(config.predecessor_timeout + 0.01)
        assert system.stats.value("noise_broadcasts") <= seen + 12
        assert [(len(m), m.unsettled()) for m in monitors] == [(0, 0)] * 12
        assert system.evicted == {}

    def test_calendar_depth_follows_work_in_flight_not_messages_seen(self):
        system = RacSystem(RacConfig.small(), seed=96)
        system.bootstrap(12)
        bound = 4 * 12 * system.config.num_rings
        depths = []
        for _ in range(6):
            system.run(0.5)
            depths.append(system.stats_report()["sim_queue_pending"])
        # 12 x 12 first sights per 50 ms slot; one timer each used to sit
        # in the calendar for predecessor_timeout (~1,500 entries here)
        assert system.stats.value("noise_broadcasts") >= 12 * 50
        assert max(depths) <= bound
        assert system.evicted == {}


class TestExtendedStability:
    def test_thirty_simulated_seconds_clean(self):
        # An all-honest population must stay eviction-free indefinitely;
        # 30 simulated seconds crosses every timer many times over.
        config = RacConfig.small(blacklist_period=3.0)
        system = RacSystem(config, seed=94)
        nodes = system.bootstrap(10)
        for round_ in range(10):
            system.send(nodes[round_ % 10], nodes[(round_ + 3) % 10], b"r%d" % round_)
            system.run(3.0)
        assert system.evicted == {}
        total_delivered = sum(len(system.delivered_messages(n)) for n in nodes)
        assert total_delivered == 10
