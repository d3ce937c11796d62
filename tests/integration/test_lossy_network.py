"""Integration: the full RAC stack on a *lossy* network.

The paper's misbehaviour detection assumes TCP on a lossless router
(footnote 6), so any missing message is freeriding. These tests extend
the chaos-test invariant — *no honest live node is ever evicted* — to
networks with packet loss and link outages: the ARQ transport must
mask loss faster than the misbehaviour timers fire, while injected
freeriders are still caught.
"""

import pytest

from repro.chaos.plan import FaultPlan
from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.experiments import fault_sweep
from repro.scenario import Scenario, prepare


#: The freerider-test configuration plus loss, with the detection
#: timers opened up to leave the ARQ its retransmission budget.
LOSSY = dict(
    num_relays=2,
    num_rings=3,
    group_min=2,
    group_max=10**9,
    message_size=2048,
    send_interval=0.05,
    relay_timeout=2.0,
    predecessor_timeout=1.2,
    rate_window=2.0,
    blacklist_period=1.5,
    puzzle_bits=2,
    link_loss_rate=0.1,
    # Cap the backoff: after an outage heals, the next probe must
    # come within one rto_max, not wherever the doubling ran off to
    # — the misbehaviour deadlines do not wait for it.
    transport_rto_max=0.25,
)


def lossy_config(**overrides):
    return RacConfig(**{**LOSSY, **overrides})


def drive_traffic(system, honest, until, stop_when=None):
    step = 0
    while system.now < until:
        live = [n for n in honest if n not in system.evicted]
        for i, src in enumerate(live):
            system.send(src, live[(i + 1) % len(live)], b"lossy-flow-%d" % step)
        system.run(0.6)
        step += 1
        if stop_when is not None and stop_when():
            return


class TestLossyAcceptance:
    """The fault sweep's harshest row: 16 nodes, 10% loss, one outage."""

    def test_freeriders_evicted_honest_spared(self):
        # One honest node loses both links for 0.4 s at t=1 s — well
        # inside the ARQ's recovery budget, so it must NOT be accused.
        run = prepare(fault_sweep.scenario(0.10))
        system, nodes = run.system, run.node_ids
        dropper, silent = nodes[3], nodes[9]
        honest = [n for n in nodes if n not in (dropper, silent)]
        system.run(1.0)
        drive_traffic(
            system,
            honest,
            until=40.0,
            stop_when=lambda: dropper in system.evicted and silent in system.evicted,
        )
        kinds = {e.accused: e.kind for e in run.outcome().evictions}
        assert kinds == {dropper: "predecessor", silent: "relay"}  # and no honest node
        # The network really was lossy, the ARQ really did work.
        report = system.stats_report()
        assert report["net_packets_dropped"] > 0
        assert report["net_dropped_loss"] > 0
        assert report["net_dropped_outage"] > 0
        assert report["transport_retransmits"] > 0
        # And traffic still flows end to end afterwards.
        src, dst = honest[0], honest[1]
        assert system.send(src, dst, b"after the storm")
        system.run(8.0)
        assert b"after the storm" in system.delivered_messages(dst)

    def test_partition_shorter_than_timers_is_tolerated(self):
        system = RacSystem(lossy_config(link_loss_rate=0.05), seed=8)
        nodes = system.bootstrap(12)
        system.run(1.0)
        half = len(nodes) // 2
        FaultPlan().partition(range(half), range(half, len(nodes)), at=1.0, duration=0.4).compile_sim(
            system, nodes
        )
        drive_traffic(system, nodes, until=8.0)
        system.run(4.0)
        assert system.evicted == {}


class TestSeededReplay:
    """A seeded lossy run replays identically — drops, retransmits,
    deliveries and all."""

    @staticmethod
    def run_once(seed=13):
        system = RacSystem(lossy_config(), seed=seed)
        nodes = system.bootstrap(10)
        system.run(0.5)
        FaultPlan().crash_restart(4, at=0.5, downtime=0.3).compile_sim(system, nodes)
        for step in range(6):
            for i, src in enumerate(nodes):
                system.send(src, nodes[(i + 1) % len(nodes)], b"replay-%d" % step)
            system.run(0.8)
        deliveries = tuple(
            (nid, tuple(system.nodes[nid].delivered), tuple(system.nodes[nid].delivered_at))
            for nid in sorted(system.nodes)
        )
        return (
            system.sim.events_processed,
            tuple(sorted(system.stats_report().items())),
            deliveries,
        )

    def test_identical_traces(self):
        assert self.run_once() == self.run_once()

    def test_different_seeds_diverge(self):
        assert self.run_once(13) != self.run_once(14)


class TestTimerValidation:
    """The scenario holds a lossy run to the ARQ's retransmission budget."""

    def test_lossy_config_with_starved_timers_rejected(self):
        config = {**LOSSY, "predecessor_timeout": 0.15, "transport_rto_initial": 0.05}
        with pytest.raises(ValueError, match="retransmission budget"):
            prepare(Scenario(nodes=4, horizon=1.0, config=config))

    def test_lossless_config_skips_the_arq_budget_check(self):
        config = {**LOSSY, "link_loss_rate": 0.0, "predecessor_timeout": 0.15}
        prepare(Scenario(nodes=4, horizon=1.0, config=config))  # must not raise
