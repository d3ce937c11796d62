"""Chaos on the live runtime: partitions heal, crashed nodes rejoin.

These are the acceptance tests of the unified chaos layer on the real
TCP substrate: a scripted partition black-holes traffic and heals with
zero honest evictions and post-heal delivery; a crash-restarted node
comes back under its original identity (same keys, same port) and
delivers again; and a configuration that deliberately convicts honest
nodes makes the invariant checker fail loudly, naming the offending
eviction.

Live runs spend wall-clock time; timers follow the live fault-test
idiom (misbehaviour windows far beyond any injected fault, so scheduler
jitter plus scripted adversity can never fake freeriding).
"""

import asyncio
import dataclasses

from repro.chaos import ChaosSupervisor, FaultPlan
from repro.core.config import timer_regime
from repro.live.cluster import LiveCluster
from repro.scenario import Scenario, run_scenario


def chaos_scenario(substrate, plan, nodes, seed, **fields):
    """The chaos harness's scenario carrying a hand-written plan."""
    params = {"substrate": substrate, "nodes": nodes, "horizon": plan.horizon}
    scenario = Scenario.from_params(params, seed, "chaos")
    return dataclasses.replace(scenario, plan=plan, **fields)


class TestLivePartition:
    def test_partition_heals_with_no_honest_eviction(self):
        plan = FaultPlan(seed=0, horizon=10.0).partition(
            [0, 1, 2], [3, 4, 5], at=2.0, duration=2.0
        )
        outcome = run_scenario(chaos_scenario("live", plan, 6, 0, heal_bound=5.0), "live")
        # The partition really blocked frames...
        assert outcome.counters.get("chaos_frames_blackholed", 0) > 0
        # ...and still: nobody was evicted, delivery resumed in bound.
        assert not outcome.evictions
        assert outcome.report.ok, outcome.report.render()
        assert outcome.deliveries


class TestCrashRestart:
    def test_restarted_node_rejoins_and_delivers(self):
        asyncio.run(self._run())

    async def _run(self):
        plan = FaultPlan(seed=1, horizon=12.0).crash_restart(1, at=1.5, downtime=1.5)
        cluster = LiveCluster(5, config=timer_regime("wall-heal"), seed=1)
        await cluster.start()
        supervisor = ChaosSupervisor(cluster, plan)
        supervisor.start()
        try:
            old_port = cluster.nodes[1].port
            for _ in range(80):  # wait out crash + downtime + restart
                await asyncio.sleep(0.25)
                if supervisor.restarts:
                    break
            assert supervisor.restarts == 1, supervisor.log
            node = cluster.nodes[1]
            assert not node.killed and node.rac is not None
            assert node.port == old_port  # same identity, same endpoint
            assert node.incarnation == 1

            # Post-restart traffic: the reborn node must deliver again.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 20.0
            k = 0
            while not node.delivered() and loop.time() < deadline:
                cluster.queue_message(0, 1, b"welcome-back-%d" % k)
                k += 1
                await asyncio.sleep(0.4)
            delivered = list(node.delivered())
        finally:
            await supervisor.stop()
            report = await cluster.shutdown()
        assert delivered, "restarted node never delivered after rejoining"
        assert not report.evicted
        # The report still carries the first incarnation's counters.
        assert report.per_node[node.node_id].get("live_connects", 0) > 0


class TestDeliberateHonestEviction:
    def test_checker_fails_and_names_the_offending_event(self):
        """Shrink the misbehaviour timers below the fault window (and
        starve the ARQ) so the protocol *does* convict honest nodes —
        the checker must fail and point at the first bad eviction."""
        plan = FaultPlan(seed=1, horizon=24.0).partition(
            [0, 1, 2, 3], [4, 5, 6, 7], at=4.0, duration=6.0
        )
        scenario = chaos_scenario(
            "sim",
            plan,
            8,
            1,
            config=dict(
                relay_timeout=6.0,
                predecessor_timeout=3.0,
                rate_window=6.0,
                transport_max_retries=8,
            ),
            enforce_contract=False,  # the window floor would refuse exactly this
        )
        outcome = run_scenario(scenario)
        assert outcome.evictions
        assert not outcome.report.ok
        first = outcome.report.first
        assert first is not None
        assert first.invariant in ("safety-eviction", "safety-blacklist", "liveness")
        violations = [v for v in outcome.report.violations if v.invariant == "safety-eviction"]
        assert violations, outcome.report.render()
        # The violation names who was evicted, on what evidence, by whom.
        assert "evicted" in violations[0].event and "0x" in violations[0].event


class TestCrossSubstrate:
    def test_one_plan_runs_on_both_substrates(self):
        """The acceptance contract: one Scenario object — population,
        plan, traffic, timers — drives the simulator and the live
        cluster, and both judge it clean."""
        scenario = Scenario.from_params(
            {"substrate": "live", "plan": "smoke", "nodes": 6, "horizon": 12.0}, 2, "chaos"
        )
        sim = run_scenario(scenario, "sim")
        live = run_scenario(scenario, "live")
        assert sim.scenario is live.scenario is scenario
        assert sim.node_ids == live.node_ids
        assert sim.report.ok, sim.report.render()
        assert live.report.ok, live.report.render()
        assert sim.deliveries and live.deliveries
        # The live run really exercised the supervisor path.
        assert any("restarted node#1" in line for line in live.log)
