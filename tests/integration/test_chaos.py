"""Chaos soak test: randomized churn + adversaries + traffic, invariants checked.

A seeded scenario generator drives a population through random joins,
voluntary leaves, crashes, freerider injections and continuous traffic.
After every phase the global invariants must hold:

* no honest *live* node is ever evicted;
* every eviction names a crashed node or an injected deviant;
* the group directory's interval partition stays consistent;
* traffic between live honest nodes keeps delivering.
"""

import random

import pytest

from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.freeride.strategies import ForwardDropper, SilentRelay


class ChaosScenario:
    def __init__(self, seed: int, loss_rate: float = 0.0) -> None:
        self.rng = random.Random(seed)
        timers = dict(relay_timeout=1.2, predecessor_timeout=0.7, rate_window=1.5)
        if loss_rate:
            # Loss delays deliveries by up to a few RTOs; the checks
            # must leave the ARQ that recovery budget (DESIGN.md §3)
            # or loss reads as freeriding.
            timers = dict(relay_timeout=2.0, predecessor_timeout=1.2, rate_window=2.0)
        self.config = RacConfig.small(
            group_min=3,
            group_max=12,
            blacklist_period=1.5,
            join_settle_time=0.2,
            link_loss_rate=loss_rate,
            transport_rto_max=0.25,
            **timers,
        )
        self.system = RacSystem(self.config, seed=seed)
        self.deviants = set()
        self.crashed = set()
        self.departed = set()
        start = self.system.bootstrap(16)
        self.all_nodes = set(start)
        self.system.run(1.5)

    # -- actions -------------------------------------------------------------
    def honest_alive(self):
        return [
            n
            for n in self.system.active_node_ids()
            if n not in self.deviants and n not in self.crashed
        ]

    def act_join(self):
        behavior = None
        if self.rng.random() < 0.3:
            behavior = self.rng.choice([ForwardDropper(1.0, seed=1), SilentRelay()])
        node = self.system.join(behavior=behavior)
        self.all_nodes.add(node)
        if behavior is not None:
            self.deviants.add(node)

    def act_leave(self):
        candidates = self.honest_alive()
        if len(candidates) > 8:
            victim = self.rng.choice(candidates)
            self.system.leave(victim)
            self.departed.add(victim)

    def act_crash(self):
        candidates = self.honest_alive()
        if len(candidates) > 8:
            victim = self.rng.choice(candidates)
            self.system.nodes[victim].stop()
            self.crashed.add(victim)

    def act_traffic(self):
        alive = self.honest_alive()
        if len(alive) >= 2:
            src, dst = self.rng.sample(alive, 2)
            self.system.send(src, dst, b"chaos-%d" % self.rng.getrandbits(30))

    # -- invariants ------------------------------------------------------------
    def check_invariants(self):
        self.system.directory.check_invariants()
        for evicted in self.system.evicted:
            assert evicted in self.deviants or evicted in self.crashed, (
                f"honest live node {evicted} was evicted"
            )

    def run(self, steps: int = 25) -> None:
        actions = [self.act_join, self.act_leave, self.act_crash, self.act_traffic,
                   self.act_traffic, self.act_traffic]
        for _ in range(steps):
            self.rng.choice(actions)()
            self.system.run(self.rng.uniform(0.4, 1.0))
            self.check_invariants()
        self.system.run(5.0)
        self.check_invariants()


@pytest.mark.parametrize("seed", [161, 162, 163])
def test_chaos_scenarios(seed):
    scenario = ChaosScenario(seed)
    scenario.run(steps=25)
    # The system is still functional after the storm.
    alive = scenario.honest_alive()
    assert len(alive) >= 2
    src, dst = alive[0], alive[-1]
    assert scenario.system.send(src, dst, b"the dust settles")
    scenario.system.run(6.0)
    assert b"the dust settles" in scenario.system.delivered_messages(dst)
    # Injected deviants that saw traffic should mostly be gone; at
    # minimum, no honest live node ever was.
    scenario.check_invariants()


@pytest.mark.parametrize("seed", [171, 172])
def test_chaos_scenarios_on_lossy_network(seed):
    """The same storm, on 5%-lossy links: churn, crashes, freeriders
    AND packet loss — and still no honest live node is ever evicted."""
    scenario = ChaosScenario(seed, loss_rate=0.05)
    scenario.run(steps=20)
    # The system is still functional after the storm.
    alive = scenario.honest_alive()
    assert len(alive) >= 2
    src, dst = alive[0], alive[-1]
    assert scenario.system.send(src, dst, b"the dust settles")
    scenario.system.run(6.0)
    assert b"the dust settles" in scenario.system.delivered_messages(dst)
    # Injected deviants that saw traffic should mostly be gone; at
    # minimum, no honest live node ever was.
    scenario.check_invariants()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1b: the membership plan evicts one honest node, on relay evidence at 38 s"
))
def test_membership_plan_evicts_no_honest_node():
    from repro.scenario import Scenario, run_scenario

    params = {"plan": "membership", "nodes": 6, "horizon": 40.0}
    out = run_scenario(Scenario.from_params(params, 0, "chaos"))
    assert out.honest_evictions == 0 and out.ok


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 20 (chained faults): the [limit] storm at N=256 evicts honest nodes (unsharded, "
    "the first at 7.33 s on predecessor evidence; 60 over the sharded 14 s run)"
))
def test_storm_at_256_evicts_no_honest_node():
    # The third sharded_evidence cell, run unsharded (its own Scenario)
    # with the 14 s plan intact, stopped 0.07 s past the first honest
    # eviction (~11 s CPU against ~47 s for the sharded cell).
    from repro.experiments.sharded_evidence import CELLS, cell_scenario
    from repro.scenario import prepare

    _label, fields = CELLS[2]
    run = prepare(cell_scenario(fields))
    run.run_to(7.4)
    assert run.outcome().honest_evictions == 0
