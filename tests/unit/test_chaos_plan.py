"""Unit tests for the chaos layer: plans, proxy shaping, invariants.

The determinism contract under test: one :class:`FaultPlan` is a single
source of truth for *what happens when* — the same builder calls (or
the same storm seed) produce the identical normalized schedule and
fingerprint, the sim compiler arms exactly that schedule, and the live
proxy draws all its randomness from the plan seed, so two runs of the
same plan shape traffic identically.
"""

import asyncio

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.chaos.plan import MEMBERSHIP, FaultPlan, canned_plan, smoke_plan, storm_plan
from repro.chaos.proxy import ChaosProxy
from repro.simnet.stats import StatsRegistry

NODE_IDS = [0x10, 0x11, 0x12, 0x13, 0x14, 0x15]


class TestPlanDeterminism:
    def test_same_builder_calls_same_fingerprint(self):
        plans = [
            FaultPlan(seed=5, horizon=20.0)
            .crash_restart(1, at=2.0, downtime=1.0)
            .partition([0, 1], [2, 3], at=5.0, duration=2.0)
            .loss(0.1, at=8.0, duration=2.0)
            for _ in range(2)
        ]
        assert plans[0].fingerprint() == plans[1].fingerprint()
        assert [e.describe() for e in plans[0].schedule()] == [
            e.describe() for e in plans[1].schedule()
        ]

    def test_storm_same_seed_identical_schedule(self):
        a = storm_plan(8, 30.0, seed=42)
        b = storm_plan(8, 30.0, seed=42)
        assert a.fingerprint() == b.fingerprint()
        assert [e.describe() for e in a.schedule()] == [e.describe() for e in b.schedule()]

    def test_storm_different_seed_differs(self):
        assert storm_plan(8, 30.0, seed=1).fingerprint() != storm_plan(8, 30.0, seed=2).fingerprint()

    def test_every_generated_and_canned_fingerprint_is_pinned(self):
        """Event kinds are appended to ``KINDS``, never inserted, and the
        random storm never draws a membership event: the fingerprints
        recorded before join/leave existed do not move."""
        pins = {
            "random": (FaultPlan.random(7, 16, 24.0), "9fb2cdbeb2b94fcc"),
            "random-256": (FaultPlan.random(3, 256, 12.0), "1cf681dc64d83e68"),
            "none": (canned_plan("none", 8, 24.0, seed=1), "315922a05a95031e"),
            "smoke": (canned_plan("smoke", 8, 24.0, seed=1), "3ddecd33945f1f26"),
            "storm": (canned_plan("storm", 8, 24.0, seed=1), "7aef1abcd39d8c67"),
            "membership": (canned_plan("membership", 6, 16.0), "7beb1d5c374c9e2a"),
        }
        assert {name: plan.fingerprint()[:16] for name, (plan, _) in pins.items()} == {
            name: pin for name, (_, pin) in pins.items()
        }
        assert not any(e.kind in MEMBERSHIP for e in FaultPlan.random(3, 256, 12.0).events)

    def test_schedule_is_sorted_by_time(self):
        plan = (
            FaultPlan(horizon=20.0)
            .loss(0.1, at=9.0, duration=1.0)
            .crash(0, at=3.0)
            .partition([0], [1], at=6.0, duration=1.0)
        )
        times = [e.at for e in plan.schedule()]
        assert times == sorted(times)

    def test_validate_rejects_out_of_range_index(self):
        plan = FaultPlan(horizon=20.0).crash(9, at=1.0)
        with pytest.raises(ValueError, match="node index 9"):
            plan.validate(4)

    def test_validate_rejects_events_past_horizon(self):
        plan = FaultPlan(horizon=10.0).crash(0, at=10.0)
        with pytest.raises(ValueError, match="horizon"):
            plan.validate(4)

    def test_runners_validate_before_touching_the_population(self):
        # An out-of-range index must surface as the typed ValueError,
        # not an IndexError from deep inside the checker: a scenario
        # that carries such a plan cannot even be constructed.
        from repro.scenario import Scenario

        plan = FaultPlan(horizon=10.0).crash(7, at=2.0)
        with pytest.raises(ValueError, match="node index 7"):
            Scenario(nodes=4, horizon=10.0, plan=plan)

    def test_fault_windows_exclude_unhealing_events(self):
        plan = (
            FaultPlan(horizon=20.0)
            .crash(0, at=1.0)  # permanent: never heals
            .crash_restart(1, at=2.0, downtime=1.0)
            .directory_outage(at=3.0, duration=1.0)  # does not gate delivery
            .partition([0], [1], at=5.0, duration=2.0)
        )
        kinds = [kind for kind, _, _ in plan.fault_windows()]
        assert kinds == ["crash", "partition"]

    def test_builder_rejects_nonsense(self):
        plan = FaultPlan(horizon=10.0)
        with pytest.raises(ValueError):
            plan.partition([0, 1], [1, 2], at=1.0, duration=1.0)  # overlap
        with pytest.raises(ValueError):
            plan.loss(1.5, at=1.0, duration=1.0)
        with pytest.raises(ValueError):
            plan.crash_restart(0, at=1.0, downtime=0.0)
        with pytest.raises(ValueError):
            plan.reorder(0, window=1, at=1.0, duration=1.0)


class TestCompileSim:
    def test_sim_runs_are_deterministic_under_a_plan(self):
        from repro.scenario import Scenario, run_scenario
        from tests.scenario_cells import run_cell

        scenario = Scenario.from_params({"plan": "smoke", "nodes": 6, "horizon": 12.0}, 3, "chaos")
        a = run_cell(scenario)  # whichever module ran it first this session
        b = run_scenario(scenario)
        assert a.deliveries == b.deliveries
        assert a.counters == b.counters
        assert scenario.fault_plan().fingerprint() == smoke_plan(6, 12.0, seed=3).fingerprint()

    def test_live_only_events_leave_the_sim_untouched(self):
        """A plan holding only live-only events compiles to notes and
        nothing else: the armed system's run is byte-identical to an
        unplanned one (the determinism-fingerprint guarantee)."""
        import dataclasses

        from repro.scenario import Scenario, run_scenario

        live_only = (
            FaultPlan(horizon=6.0)
            .reorder(0, window=4, at=1.0, duration=1.0)
            .directory_outage(at=2.0, duration=1.0)
        )
        plain_scenario = Scenario.from_params({"plan": "none", "nodes": 6, "horizon": 6.0}, 3, "chaos")
        armed = run_scenario(dataclasses.replace(plain_scenario, plan=live_only))
        plain = run_scenario(plain_scenario)
        assert len(armed.notes) == 2
        assert armed.deliveries == plain.deliveries
        assert armed.counters == plain.counters

    def test_compile_notes_name_the_approximated_events(self):
        from repro.core.config import timer_regime
        from repro.core.system import RacSystem

        system = RacSystem(timer_regime("heal"), seed=0)
        node_ids = system.bootstrap(6)
        plan = (
            FaultPlan(horizon=20.0)
            .crash_restart(2, at=1.0, downtime=1.0)
            .reorder(0, window=4, at=2.0, duration=1.0)
        )
        notes = plan.compile_sim(system, node_ids)
        assert any("link outage" in note for note in notes)
        assert any("live substrate only" in note for note in notes)

    def test_a_loss_plan_keeps_the_arq_and_a_leave_plan_goes_direct(self):
        # The transport chooses at its first segment, from the plan
        # compiled by then: a loss window that opens later must already
        # rule out the direct path, a departure need not.
        from repro.core.config import timer_regime
        from repro.core.system import RacSystem

        def run_with(plan):
            system = RacSystem(timer_regime("heal"), seed=0)
            plan.compile_sim(system, system.bootstrap(6))
            system.run(0.5)
            return system

        lossy = run_with(FaultPlan(horizon=20.0).loss(0.05, at=5.0, duration=1.0))
        assert lossy.transport.direct is False and not lossy.faults.sealed
        assert "net_dropped_loss" not in lossy.stats_report()  # the window has not opened
        leaving = run_with(FaultPlan(horizon=20.0).leave(1, at=5.0))
        assert leaving.transport.direct is True and leaving.faults.sealed


def _shim(plan: FaultPlan) -> "tuple[ChaosProxy, StatsRegistry]":
    """An unstarted proxy (clock pinned at t=0) plus node 0's stats."""
    proxy = ChaosProxy(plan, NODE_IDS, bandwidth_bps=1e6)
    stats = StatsRegistry()
    proxy.register(NODE_IDS[0], stats)
    return proxy, stats


class TestProxyShaping:
    def test_partition_blackholes_both_directions(self):
        plan = FaultPlan(horizon=10.0).partition([0, 1, 2], [3, 4, 5], at=0.0, duration=5.0)
        proxy, stats = _shim(plan)
        sent = []
        proxy.filter(NODE_IDS[0], NODE_IDS[3], b"x", sent.append)  # across the cut
        proxy.filter(NODE_IDS[3], NODE_IDS[0], b"y", sent.append)  # reverse direction
        proxy.filter(NODE_IDS[0], NODE_IDS[1], b"z", sent.append)  # same side
        assert sent == [b"z"]
        assert stats.as_dict()["chaos_frames_blackholed"] == 1  # node 0's verdicts only

    def test_loss_pattern_is_seed_deterministic(self):
        def drops(seed):
            plan = FaultPlan(seed=seed, horizon=10.0).loss(0.5, at=0.0, duration=5.0)
            proxy, _ = _shim(plan)
            pattern = []
            for k in range(64):
                out = []
                proxy.filter(NODE_IDS[0], NODE_IDS[1], b"%d" % k, out.append)
                pattern.append(bool(out))
            return pattern

        assert drops(7) == drops(7)
        assert drops(7) != drops(8)
        assert any(drops(7)) and not all(drops(7))  # rate actually bites

    def test_loss_scoped_to_one_node(self):
        plan = FaultPlan(seed=0, horizon=10.0).loss(0.99, at=0.0, duration=5.0, node=2)
        proxy, _ = _shim(plan)
        out = []
        for _ in range(32):
            proxy.filter(NODE_IDS[0], NODE_IDS[1], b"x", out.append)  # unscoped pair
        assert len(out) == 32

    def test_reorder_window_flushes_complete_and_shuffled(self):
        plan = FaultPlan(seed=3, horizon=10.0).reorder(0, window=4, at=0.0, duration=5.0)
        proxy, stats = _shim(plan)
        out = []
        frames = [b"%d" % k for k in range(8)]
        for frame in frames:
            proxy.filter(NODE_IDS[0], NODE_IDS[1], frame, out.append)
        assert sorted(out) == sorted(frames)  # nothing lost
        assert out != frames  # order actually changed
        assert stats.as_dict()["chaos_frames_reordered"] == 8

    def test_close_flushes_held_frames(self):
        plan = FaultPlan(horizon=10.0).reorder(0, window=64, at=0.0, duration=5.0)
        proxy, _ = _shim(plan)
        out = []
        proxy.filter(NODE_IDS[0], NODE_IDS[1], b"held", out.append)
        assert out == []
        proxy.close()
        assert out == [b"held"]

    def test_degrade_delay_is_the_serialization_surplus(self):
        plan = FaultPlan(horizon=10.0).degrade(1, factor=0.5, at=0.0, duration=5.0)
        proxy, _ = _shim(plan)
        size = 996  # (996 + 4) * 8 = 8000 bits
        delay = proxy._degrade_delay(NODE_IDS[0], NODE_IDS[1], size, 0.0)
        assert delay == pytest.approx(8000 / (1e6 * 0.5) - 8000 / 1e6)
        assert proxy._degrade_delay(NODE_IDS[2], NODE_IDS[3], size, 0.0) == 0.0

    def test_inactive_windows_pass_through(self):
        plan = (
            FaultPlan(horizon=20.0)
            .partition([0], [1], at=5.0, duration=1.0)
            .loss(0.99, at=5.0, duration=1.0)
        )
        proxy, _ = _shim(plan)  # clock pinned at 0: both windows inactive
        out = []
        proxy.filter(NODE_IDS[0], NODE_IDS[1], b"x", out.append)
        assert out == [b"x"]


class TestInvariantChecker:
    def test_honest_eviction_is_a_named_violation(self):
        checker = InvariantChecker([1, 2, 3])
        checker.record_eviction(4.5, reporter=2, accused=1, kind="predecessor")
        checker.finish(10.0)
        report = checker.check()
        assert not report.ok
        assert report.first.invariant == "safety-eviction"
        assert "0x1" in report.first.event and "predecessor" in report.first.event

    def test_deviant_and_downed_evictions_are_excused(self):
        checker = InvariantChecker([1, 2, 3], deviants=[9])
        checker.note_crash(1, 2.0)
        checker.note_restart(1, 4.0)
        checker.record_eviction(3.0, reporter=2, accused=1, kind="relay")  # down
        checker.record_eviction(5.0, reporter=2, accused=9, kind="relay")  # deviant
        checker.finish(10.0)
        assert checker.check().ok

    def test_eviction_after_restart_is_not_excused(self):
        checker = InvariantChecker([1, 2, 3])
        checker.note_crash(1, 2.0)
        checker.note_restart(1, 4.0)
        checker.record_eviction(6.0, reporter=2, accused=1, kind="relay")
        checker.finish(10.0)
        assert not checker.check().ok

    def test_blacklist_residue_is_a_violation(self):
        checker = InvariantChecker([1, 2, 3])
        checker.finish(10.0)
        report = checker.check(blacklists={2: [1]})
        assert [v.invariant for v in report.violations] == ["safety-blacklist"]

    def test_liveness_needs_a_delivery_inside_the_heal_bound(self):
        checker = InvariantChecker([1, 2], heal_bound=2.0)
        checker.note_fault_window("partition", 1.0, 3.0)
        checker.record_delivery(0.5, 1, b"before the fault")
        checker.finish(10.0)
        report = checker.check()
        assert [v.invariant for v in report.violations] == ["liveness"]
        assert "partition" in report.first.event

        healed = InvariantChecker([1, 2], heal_bound=2.0)
        healed.note_fault_window("partition", 1.0, 3.0)
        healed.record_delivery(4.0, 1, b"after the heal")
        healed.finish(10.0)
        assert healed.check().ok

    def test_liveness_bound_outside_the_run_is_skipped(self):
        checker = InvariantChecker([1, 2], heal_bound=5.0)
        checker.note_fault_window("loss", 1.0, 8.0)
        checker.finish(10.0)  # 8 + 5 > 10: cannot be judged
        report = checker.check()
        assert report.ok
        assert report.checks["heal_windows"] == 0


class TestDirectoryClientBounds:
    def test_unreachable_directory_raises_typed_error(self):
        from repro.live.directory import DirectoryClient, DirectoryUnavailable

        async def go():
            client = DirectoryClient(
                "127.0.0.1", 1, connect_timeout=0.2, retries=1, retry_delay=0.01
            )
            with pytest.raises(DirectoryUnavailable):
                await client.wait_roster(1, timeout=1.0)

        asyncio.run(go())
