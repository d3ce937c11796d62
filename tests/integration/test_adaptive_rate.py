"""Integration tests: closed-loop rate control under overload.

With an open-loop interval that demands more than the link can carry,
queues grow without bound and timers eventually misfire. The adaptive
mode (Section III's "highest possible throughput it can sustain",
implemented as backlog-based slot deferral) keeps the system stable at
the same offered load.
"""

import pytest

from repro.core.config import RacConfig
from repro.core.system import RacSystem


def overload_config(**overrides):
    # Saturation interval for (R=3, G=8, M=2048, C=5 Mb/s) is ~79 ms;
    # a 30 ms interval overshoots the link by ~2.6x.
    base = dict(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.03,
        relay_timeout=3.0,
        predecessor_timeout=2.0,
        rate_window=3.0,
        blacklist_period=0.0,
        puzzle_bits=2,
        link_bandwidth_bps=5e6,
    )
    base.update(overrides)
    return RacConfig(**base)


def max_backlog(system):
    return max(
        system.uplink_backlog_seconds(node_id) for node_id in system.active_node_ids()
    )


class TestOpenLoopOverload:
    def test_backlog_grows_without_bound(self):
        system = RacSystem(overload_config(), seed=121)
        system.bootstrap(8)
        system.run(3.0)
        early = max_backlog(system)
        system.run(3.0)
        late = max_backlog(system)
        assert late > early  # still growing
        assert late > 1.0  # far beyond any sane queue


class TestAdaptiveRate:
    def test_backlog_stays_bounded(self):
        system = RacSystem(overload_config(adaptive_backlog_limit=0.1), seed=122)
        system.bootstrap(8)
        system.run(6.0)
        assert max_backlog(system) < 0.5
        assert system.stats.value("slot_deferred") > 0

    @staticmethod
    def _delivers_and_never_misfires(seed):
        system = RacSystem(overload_config(adaptive_backlog_limit=0.1), seed=seed)
        nodes = system.bootstrap(8)
        system.run(2.0)
        system.send(nodes[0], nodes[4], b"through the backpressure")
        system.run(8.0)
        assert system.delivered_messages(nodes[4]) == [b"through the backpressure"]
        assert system.evicted == {}

    def test_still_delivers_and_never_misfires(self):
        self._delivers_and_never_misfires(123)

    @pytest.mark.parametrize("seed", [121, 122, 124, 125, 126])
    def test_still_delivers_and_never_misfires_on_other_seeds(self, seed):
        # A lossless star's transport charges each ACK to the receiver's
        # uplink only. Charging the reverse downlink too, at receipt
        # time, reserved it across idle gaps and evicted 3-6 honest
        # nodes here on five of these six seeds.
        self._delivers_and_never_misfires(seed)

    def test_no_deferrals_when_underloaded(self):
        config = overload_config(
            send_interval=0.2, adaptive_backlog_limit=0.1  # well under capacity
        )
        system = RacSystem(config, seed=124)
        system.bootstrap(8)
        system.run(4.0)
        assert system.stats.value("slot_deferred") == 0
