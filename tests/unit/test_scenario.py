"""Unit tests for the scenario pipeline (:mod:`repro.scenario`)."""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos.plan import CANNED_PLANS, FaultPlan, canned_plan
from repro.cli import main
from repro.core.config import RacConfig, timer_regime
from repro.core.identity import build_population
from repro.freeride.registry import BEHAVIORS, UnknownBehaviorError
from repro.orchestrator.workloads import WorkerContext, resolve_workload
from repro.scenario import (
    HARNESSES,
    Scenario,
    SimRun,
    UnsupportedOnSubstrate,
    plan_coalition_indices,
    plant_behaviors,
    prepare,
    ring_sends,
    run_scenario,
    traffic_sends,
)
from repro.live.cluster import LiveCluster
from repro.simnet.shard import ScaleSpec, build_shard_system, plan_shard_inputs
from repro.simnet.snapshot import restore_system, snapshot_system


class TestCannedPlans:
    """One spelling of ``none | smoke | storm | membership``, checked at every door."""

    def test_the_names(self):
        assert CANNED_PLANS == ("none", "smoke", "storm", "membership")
        for name in CANNED_PLANS:
            canned_plan(name, 8, 12.0, seed=1).validate(8)

    def test_unknown_name_raises_on_every_entry_point(self, capsys):
        with pytest.raises(ValueError, match="known plans: none, smoke, storm, membership"):
            canned_plan("tsunami", 8, 12.0)
        with pytest.raises(ValueError, match="tsunami"):
            Scenario(nodes=8, horizon=12.0, plan="tsunami")
        with pytest.raises(ValueError, match="tsunami"):
            ScaleSpec(nodes=16, num_shards=1, plan="tsunami")
        for workload in ("chaos", "campaign"):
            with pytest.raises(ValueError, match="tsunami"):
                resolve_workload(workload)({"plan": "tsunami"}, 0, WorkerContext())
        for command in ("run", "plan"):
            assert main(["chaos", command, "--plan", "tsunami"]) == 2
            assert "tsunami" in capsys.readouterr().err

    def test_plan_none_runs_zero_fault_windows(self):
        # `--base plan=none` used to soak under a storm, recorded as "none".
        scenario = Scenario.from_params({"plan": "none", "nodes": 6, "horizon": 2.0}, 0, "chaos")
        assert scenario.fault_plan().fault_windows() == []
        metrics = resolve_workload("chaos")(
            {"plan": "none", "nodes": 6, "horizon": 2.0}, 0, WorkerContext()
        )
        assert metrics["heal_windows_checked"] == 0.0
        assert metrics["deliveries"] > 0 and metrics["violations"] == 0.0


class TestMembershipPlan:
    """Join and leave are plan events: one join splits the 6-node
    group, two leaves dissolve one half, and the judge holds delivery to
    resume after each."""

    PARAMS = {"plan": "membership", "nodes": 6, "horizon": 16.0}

    def test_split_dissolve_and_delivery_to_the_joiner_on_sim(self):
        scenario = Scenario.from_params(self.PARAMS, 0, "chaos")
        assert scenario.population == 7
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.render()
        assert outcome.counters["group_splits"] >= 1 and outcome.counters["group_dissolves"] >= 1
        assert not outcome.evictions
        assert outcome.report.checks["heal_windows"] == 3  # the join and both leaves
        joiner = build_population(scenario.configuration(), 7, seed=0)[6].node_id
        assert outcome.node_ids[6] == joiner
        assert any(node == joiner for _at, node, _payload in outcome.deliveries)

    def test_a_churn_sweep_cell_is_a_chaos_cell(self):
        metrics = resolve_workload("chaos")(self.PARAMS, 0, WorkerContext())
        assert metrics["group_splits"] >= 1 and metrics["group_dissolves"] >= 1
        assert metrics["evictions"] == 0.0 and metrics["violations"] == 0.0

    def test_a_leave_may_name_a_joiner_once_it_has_joined(self):
        plan = FaultPlan(horizon=10.0).join(2.0).leave(6, 3.0)
        plan.validate(6)
        with pytest.raises(ValueError, match="outside 0..5"):
            FaultPlan(horizon=10.0).leave(6, 1.0).join(2.0).validate(6)
        with pytest.raises(ValueError, match="already left"):
            FaultPlan(horizon=10.0).leave(1, 1.0).leave(1, 2.0).validate(6)
        with pytest.raises(ValueError, match="outside 0..5"):
            FaultPlan(horizon=10.0).join(1.0).crash(6, 2.0).validate(6)

    def test_sharded_runs_refuse_membership_plans(self):
        with pytest.raises(UnsupportedOnSubstrate, match="'plan'.*sharded"):
            ScaleSpec(nodes=16, num_shards=1, plan="membership")


class TestSubstrateSupport:
    DEVIANT = {"topology": "wan-king", "nodes": 6, "horizon": 4.0, "deviant": "forward-dropper"}

    def test_live_refuses_what_it_would_silently_drop(self):
        scenario = Scenario.from_params({**self.DEVIANT, "substrate": "live"}, 0, "topo")
        with pytest.raises(UnsupportedOnSubstrate, match="'deviants'") as caught:
            run_scenario(scenario, "live")
        assert caught.value.field == "deviants" and caught.value.substrate == "live"
        scenario.check_substrate("sim")  # the simulator plants anything

        coalition = dataclasses.replace(
            scenario, deviants={}, coalition={"mode": "shield", "members": [1, 2]}
        )
        with pytest.raises(UnsupportedOnSubstrate, match="'coalition'"):
            coalition.check_substrate("live")

    def test_cli_exits_2_before_running_anything(self, capsys):
        code = main(
            ["topo", "run", "--preset", "wan-king", "--substrate", "both",
             "--deviant", "forward-dropper", "--nodes", "6"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "'deviants' is not supported on the live substrate" in captured.err
        assert captured.out == ""  # the sim leg did not run either

    def test_unknown_substrate(self):
        with pytest.raises(ValueError, match="known: sim, live"):
            run_scenario(Scenario(nodes=4, horizon=1.0), "sharded")


class TestConfigValidation:
    def test_unknown_field_is_a_type_error_listing_the_fields(self):
        with pytest.raises(TypeError, match="relay_timout") as caught:
            Scenario(nodes=4, horizon=1.0, config={"relay_timout": 9.0})
        assert "relay_timeout" in str(caught.value)
        with pytest.raises(TypeError, match="nodez"):
            Scenario.from_params({"nodez": 4}, 0, "protocol")

    def test_every_config_field_reaches_the_run(self):
        # The two old whitelists dropped these silently.
        protocol = Scenario.from_params({"assumed_opponent_fraction": 0.25}, 0, "protocol")
        assert protocol.configuration().assumed_opponent_fraction == 0.25
        campaign = Scenario.from_params(
            {
                "link_bandwidth_bps": 1e8,
                "key_backend": "dh",
                "propagation_jitter": 1e-4,
                "transport_rto_initial": 0.02,
            },
            0,
            "campaign",
        )
        config = campaign.configuration()
        assert config.link_bandwidth_bps == 1e8 and config.key_backend == "dh"
        assert config.propagation_jitter == 1e-4 and config.transport_rto_initial == 0.02

    def test_unknown_behaviour_and_index_bounds(self):
        with pytest.raises(UnknownBehaviorError):
            Scenario(nodes=4, horizon=1.0, deviants={1: "lazybones"})
        with pytest.raises(ValueError, match="outside population 0..3"):
            Scenario(nodes=4, horizon=1.0, deviants={4: "silent-relay"})
        with pytest.raises(ValueError, match="topology"):
            Scenario(nodes=4, horizon=1.0, plan="diurnal")


class TestFromParams:
    def test_harness_rows_fix_what_the_old_runners_hard_coded(self):
        assert sorted(HARNESSES) == ["campaign", "chaos", "live", "protocol", "topo"]
        protocol = Scenario.from_params({"duration": 1.0, "messages": 1}, 7, "protocol")
        assert (protocol.horizon, protocol.seed, protocol.tag) == (1.0, 7, "sweep")
        assert (protocol.traffic, protocol.messages) == ("ring", 1)
        assert protocol.configuration() == RacConfig.small()

        chaos_sim = Scenario.from_params({}, 0, "chaos")
        chaos_live = Scenario.from_params({"substrate": "live"}, 0, "chaos")
        assert (chaos_sim.regime, chaos_live.regime) == ("heal", "wall-heal")
        assert chaos_sim.plan == "smoke" and chaos_sim.traffic == "round-robin"

        topo = Scenario.from_params({"topology": "wan-king", "timer_scale": 0.5}, 0, "topo")
        config = topo.configuration()
        assert (config.relay_timeout, config.rate_window) == (2.0, 2.0)
        assert (config.transport_rto_max, config.join_settle_time) == (0.5, 0.2)
        assert topo.heal_bound == 5.0

    def test_campaign_params_keep_their_meaning(self):
        cell = Scenario.from_params(
            {"strategy": "silent-relay", "plan": "storm", "loss": 0.05, "shuffle_rounds": 6,
             "horizon": 16.0, "detection_bound": 12.0},
            3,
            "campaign",
        )
        assert cell.deviants == {3: "silent-relay"} and cell.plan == "storm"
        config = cell.configuration()
        assert config.link_loss_rate == 0.05
        assert config.blacklist_period == pytest.approx(16.0 / 8)
        assert cell.detection_bound == 12.0
        honest = Scenario.from_params({"strategy": "honest"}, 0, "campaign")
        assert not honest.planted()
        with pytest.raises(ValueError, match="not a coordinated behaviour"):
            Scenario.from_params(
                {"strategy": "silent-relay", "coalition_fraction": 0.2}, 0, "campaign"
            )

    def test_round_robin_instants_and_payloads(self):
        scenario = Scenario.from_params({"nodes": 4, "horizon": 1.0}, 9, "campaign")
        sends = traffic_sends(scenario, (), None)
        assert [s[0] for s in sends] == [0.2, 0.45, 0.7, 0.95]
        assert sends[3][1:] == (3, 0, b"campaign/9/3")
        assert ring_sends(3, 2, "live", 4)[-1] == (2, 0, b"live/4/2/1")


class TestPlanting:
    def test_coalition_indices_spread_from_the_deviant_slot(self):
        assert plan_coalition_indices(10, 1) == (3,)
        assert plan_coalition_indices(12, 4) == (3, 6, 9, 0)
        with pytest.raises(ValueError):
            plan_coalition_indices(4, 4)

    def test_planted_ids_and_framed_victim_equal_the_parents(self):
        """Recorded on 42780da, where ``run_campaign_cell`` bootstrapped
        a whole probe ``RacSystem`` per cell to learn these ids: for
        every registry strategy (10 nodes, seed 5, coalitions at 30%),
        who is planted and who is framed."""
        planting = {}
        for name, spec in sorted(BEHAVIORS.items()):
            params = {"strategy": name, "nodes": 10, "horizon": 4.0}
            if spec.coalition_mode is not None:
                params["coalition_fraction"] = 0.3
            scenario = Scenario.from_params(params, 5, "campaign")
            config = scenario.configuration()
            ids = [m.node_id for m in build_population(config, 10, 5)]
            behaviors = plant_behaviors(scenario, config)
            victims = set()
            for behavior in behaviors.values():
                assert type(behavior).name == name
                if hasattr(behavior, "victim"):
                    victims.add(behavior.victim)
                if hasattr(behavior, "coordinator"):
                    victims.update(behavior.coordinator.victims)
            planting[name] = {
                "planted": [str(ids[i]) for i in sorted(behaviors)],
                "victims": sorted(str(v) for v in victims),
            }
        assert len(planting["coalition-frame"]["planted"]) == 3
        assert planting["false-accuser"]["victims"] == planting["coalition-frame"]["victims"]
        blob = json.dumps(planting, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "2b9dd787ae75598c"

    def test_scale_spec_lowers_through_the_same_scenario(self):
        spec = ScaleSpec(
            nodes=16, num_shards=2, seed=3, plan="none", deviants={2: "silent-relay"},
            coalition={"mode": "frame", "members": [5, 9], "victims": [12]},
            config={"message_size": 2048},
        )
        scenario = spec.scenario()
        assert scenario.deviants == {1: "silent-relay"}
        assert scenario.coalition["members"] == (4, 8) and scenario.coalition["victims"] == (11,)
        assert (scenario.traffic, scenario.messages, scenario.tag) == ("intra-group", 1, "scale")
        assert spec.build_config() == scenario.configuration()
        assert spec.build_config().message_size == 2048


class TestTwoPhaseRun:
    def test_a_prepared_run_snapshots_and_resumes_identically(self):
        scenario = Scenario.from_params({"plan": "smoke", "nodes": 6, "horizon": 3.0}, 1, "chaos")
        run = prepare(scenario)
        run.run_to(1.0)
        twin = restore_system(snapshot_system(run, verify=True))
        for side in (run, twin):
            side.run_to(scenario.horizon)
        a, b = run.outcome(), twin.outcome()
        assert a.counters == b.counters and a.sent == b.sent and a.sent
        assert a.delivered_multiset() == b.delivered_multiset()
        assert a.report.checks == b.report.checks

    def test_outcome_can_be_taken_twice(self):
        run = prepare(Scenario.from_params({"nodes": 4, "duration": 1.0}, 0, "protocol"))
        run.run_to(1.0)
        first, second = run.outcome(), run.outcome()
        assert first.report.checks == second.report.checks
        assert first.metrics() == second.metrics()

    def test_enforce_contract_false_is_the_one_escape_hatch(self):
        plan = FaultPlan(horizon=4.0).partition([0, 1], [2, 3], at=1.0, duration=2.0)
        scenario = Scenario(nodes=4, horizon=4.0, plan=plan)  # tight: sub-second timers
        with pytest.raises(ValueError, match="misbehaviour timers"):
            prepare(scenario)
        prepare(dataclasses.replace(scenario, enforce_contract=False))
        assert timer_regime("tight").relay_timeout == 1.0

    def test_the_hatch_means_the_same_on_every_substrate(self, monkeypatch):
        # Far below the lan floor of (L + 2) origination slots.
        starved = Scenario(nodes=4, horizon=1.0, config={"relay_timeout": 0.001})

        def opened(main):
            main.close()
            raise AssertionError("a live run started before its contract was checked")

        monkeypatch.setattr("repro.scenario.asyncio.run", opened)
        refused = r"relay_timeout=0\.001s is below its lan floor"
        with pytest.raises(ValueError, match=refused):
            prepare(starved)
        with pytest.raises(ValueError, match=refused):
            build_shard_system(plan_shard_inputs(ScaleSpec(nodes=16, num_shards=1, config=dict(starved.config)))[0])
        for processes in (False, True):
            with pytest.raises(ValueError, match=refused):
                run_scenario(starved, "live", processes=processes)

        unchecked = dataclasses.replace(starved, enforce_contract=False)
        assert isinstance(prepare(unchecked), SimRun)
        assert len(LiveCluster(4, config=unchecked.configuration()).materials) == 4

    def test_outcome_renders_and_reports(self):
        outcome = run_scenario(
            Scenario.from_params({"topology": "wan-king", "nodes": 6, "horizon": 2.0}, 0, "topo")
        )
        text = outcome.render()
        assert text.startswith("topo run [sim]: 6 nodes, 2s, seed 0, topology wan-king (")
        assert "latency" in text and "invariants: OK" in text
        assert outcome.metrics()["deliveries"] == float(len(outcome.deliveries))
        assert outcome.detected is False and outcome.detection_time_s is None
