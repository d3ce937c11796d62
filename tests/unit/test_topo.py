"""The WAN topology layer: model determinism, link math, substrate parity.

Four contracts pinned here:

* **model** — presets are deterministic in their seed, fingerprints are
  stable identities, the explicit-matrix loader round-trips, and
  malformed matrices are typed errors;
* **lan identity** — the ``lan`` preset is algebraically the bare star
  (zero delays, inherited bandwidth), checked end to end by the
  equivalence gate (the byte-level SHA pin lives in
  tests/integration/test_determinism.py);
* **asymmetric access math** — a model's up/down bandwidths size the
  simulator's real links, verified against hand-computed arrival times;
* **substrate parity** — the chaos proxy's per-frame shaping delay and
  the simulator's organic (links + router) delay agree on the same
  model, which is what "one topology object, two substrates" means.
"""

import dataclasses

import pytest

from repro.chaos.plan import FaultPlan
from repro.chaos.proxy import ChaosProxy
from repro.core.config import (
    WAN_ARQ,
    RacConfig,
    TopologyTimerError,
    check_timers,
    scale_timers,
    timer_regime,
)
from repro.core.system import RacSystem
from repro.simnet.engine import Simulator
from repro.simnet.network import DEFAULT_PROPAGATION_DELAY, StarNetwork
from repro.topo.model import (
    PRESET_NAMES,
    AccessClass,
    TopologyModel,
    frame_shaping_delay,
    from_matrix,
    hetero_access,
    lan,
    planet_diurnal,
    preset,
    wan_king,
)
from repro.scenario import Scenario, prepare, run_scenario
from repro.topo.run import lan_equivalence
from tests.scenario_cells import run_cell
from repro.topo.traces import diurnal_churn_plan, publish_times


class TestModel:
    def test_presets_deterministic_in_seed(self):
        for name in PRESET_NAMES:
            a, b = preset(name, 12, seed=3), preset(name, 12, seed=3)
            assert a.latency == b.latency
            assert a.access == b.access
            assert a.fingerprint() == b.fingerprint()

    def test_seed_moves_the_sampled_presets(self):
        assert wan_king(8, seed=0).fingerprint() != wan_king(8, seed=1).fingerprint()
        assert hetero_access(8, seed=0).fingerprint() != hetero_access(8, seed=1).fingerprint()
        assert planet_diurnal(8, seed=0).fingerprint() != planet_diurnal(8, seed=1).fingerprint()

    def test_size_is_part_of_the_identity(self):
        assert wan_king(8).fingerprint() != wan_king(9).fingerprint()

    def test_lan_is_the_identity_model(self):
        model = lan(6)
        assert model.worst_rtt() == 0.0
        for i in range(6):
            assert model.up_bps(i, 1e9) == 1e9  # inherits the default
            for j in range(6):
                assert model.pair_delay(i, j) == 0.0

    def test_matrix_must_be_square_with_zero_diagonal(self):
        with pytest.raises(ValueError, match="square"):
            TopologyModel(name="bad", latency=((0.0, 0.1),), access=(AccessClass("x"),))
        with pytest.raises(ValueError, match="diagonal"):
            from_matrix([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            from_matrix([[0.0, -0.1], [0.0, 0.0]])

    def test_dict_and_file_round_trip(self, tmp_path):
        model = planet_diurnal(9, seed=5)
        clone = TopologyModel.from_dict(model.to_dict())
        assert clone.fingerprint() == model.fingerprint()
        path = tmp_path / "model.json"
        model.save(str(path))
        assert TopologyModel.load(str(path)).fingerprint() == model.fingerprint()

    def test_unknown_preset_lists_the_valid_names(self):
        with pytest.raises(ValueError, match="wan-king"):
            preset("metroplex", 8)

    def test_slot_wraps_population_over_matrix_size(self):
        model = wan_king(4)
        assert model.slot(0) == 0
        assert model.slot(5) == 1

    def test_worst_figures(self):
        model = from_matrix(
            [[0.0, 0.010], [0.030, 0.0]],
            access=(
                AccessClass("a", up_bps=1e6, down_bps=4e6),
                AccessClass("b", up_bps=2e6, down_bps=8e6),
            ),
        )
        assert model.worst_rtt() == pytest.approx(0.040)
        # slowest up = 1e6, slowest down = 4e6, for 1000 bytes:
        assert model.worst_one_way_serialization(1000, 1e9) == pytest.approx(
            8000 / 1e6 + 8000 / 4e6
        )


class TestFrameShaping:
    def test_surplus_over_nominal_plus_pair_delay(self):
        model = from_matrix(
            [[0.0, 0.020], [0.020, 0.0]],
            access=(
                AccessClass("slow", up_bps=1e6, down_bps=2e6),
                AccessClass("slow", up_bps=1e6, down_bps=2e6),
            ),
        )
        bits = 1250 * 8
        expected = 0.020 + (bits / 1e6 + bits / 2e6 - 2 * bits / 1e8)
        assert frame_shaping_delay(model, 0, 1, 1250, 1e8) == pytest.approx(expected)

    def test_faster_access_than_nominal_never_goes_negative(self):
        model = from_matrix(
            [[0.0, 0.005], [0.005, 0.0]],
            access=(AccessClass("fat", up_bps=1e9, down_bps=1e9),) * 2,
        )
        assert frame_shaping_delay(model, 0, 1, 1250, 1e6) == pytest.approx(0.005)


class TestSimSubstrate:
    def test_asymmetric_access_sizes_the_links(self):
        # 1250 B: 10 ms up at 1 Mb/s, 5 ms down at 2 Mb/s, 20 ms pair
        # delay — every term visible in the arrival time.
        model = from_matrix(
            [[0.0, 0.020], [0.020, 0.0]],
            access=(
                AccessClass("up1", up_bps=1e6, down_bps=8e6),
                AccessClass("dn2", up_bps=4e6, down_bps=2e6),
            ),
        )
        sim = Simulator()
        net = StarNetwork(sim, bandwidth_bps=1_000_000, topology=model)
        arrival = []
        net.attach(1, lambda p: None)  # slot 0
        net.attach(2, lambda p: arrival.append(sim.now))  # slot 1
        net.send(1, 2, "x", 1250)
        sim.run()
        assert arrival[0] == pytest.approx(
            0.010 + 0.020 + DEFAULT_PROPAGATION_DELAY + 0.005
        )
        assert net.topology_slot(1) == 0 and net.topology_slot(2) == 1
        assert net.pair_delays[(1, 2)][0] == 1
        assert net.pair_delays[(1, 2)][1] == pytest.approx(0.020)

    def test_sim_delta_matches_frame_shaping_delay(self):
        # The parity contract: the organic sim realization (sized links
        # + router pair delay) adds exactly what frame_shaping_delay
        # computes for the proxy, for the same model and frame. Exact
        # parity requires access links no faster than nominal — the
        # proxy can only add delay, never speed a loopback frame up.
        model = from_matrix(
            [[0.0, 0.015], [0.015, 0.0]],
            access=(AccessClass("dsl", up_bps=2e6, down_bps=5e6),) * 2,
        )
        size, nominal = 900, 10_000_000.0

        def arrival(topology):
            sim = Simulator()
            net = StarNetwork(sim, bandwidth_bps=nominal, topology=topology)
            seen = []
            net.attach(1, lambda p: None)
            net.attach(2, lambda p: seen.append(sim.now))
            net.send(1, 2, "x", size)
            sim.run()
            return seen[0]

        delta = arrival(model) - arrival(None)
        assert delta == pytest.approx(frame_shaping_delay(model, 0, 1, size, nominal))

    def test_rejoining_node_keeps_its_slot(self):
        model = hetero_access(4)
        sim = Simulator()
        net = StarNetwork(sim, bandwidth_bps=1e9, topology=model)
        for nid in (10, 11, 12):
            net.attach(nid, lambda p: None)
        assert net.topology_slot(11) == 1
        net.detach(11)
        net.attach(11, lambda p: None)  # crash-restart: same slot back
        assert net.topology_slot(11) == 1
        net.attach(13, lambda p: None)  # newcomers keep advancing
        assert net.topology_slot(13) == 3


class TestProxyParity:
    def _proxy(self, model, node_ids, bandwidth):
        plan = FaultPlan(seed=0, horizon=10.0)
        return ChaosProxy(plan, node_ids, bandwidth_bps=bandwidth, topology=model)

    def test_topology_delay_is_frame_shaping_delay(self):
        model = wan_king(4, seed=2)
        proxy = self._proxy(model, [100, 101, 102, 103], 100e6)
        frame = b"z" * 500
        assert proxy._topology_delay(100, 103, len(frame)) == pytest.approx(
            frame_shaping_delay(model, 0, 3, len(frame) + 4, 100e6)
        )

    def test_two_node_exchange_shapes_like_the_sim(self):
        # The same 2-node frame on both substrates' arithmetic: the
        # proxy's shaping delay equals the sim's organic delta for the
        # proxy's framed size (payload + 4-byte length prefix).
        model = from_matrix(
            [[0.0, 0.025], [0.025, 0.0]],
            access=(AccessClass("cable", up_bps=3e6, down_bps=6e6),) * 2,
        )
        nominal = 20_000_000.0
        payload = b"q" * 800
        proxy = self._proxy(model, [7, 8], nominal)
        shaped = proxy._topology_delay(7, 8, len(payload))

        def arrival(topology):
            sim = Simulator()
            net = StarNetwork(sim, bandwidth_bps=nominal, topology=topology)
            seen = []
            net.attach(7, lambda p: None)
            net.attach(8, lambda p: seen.append(sim.now))
            net.send(7, 8, "x", len(payload) + 4)
            sim.run()
            return seen[0]

        assert shaped == pytest.approx(arrival(model) - arrival(None))

    def test_fifo_clamp_keeps_pair_order(self):
        model = hetero_access(2, seed=1)
        proxy = self._proxy(model, [1, 2], 1e6)
        big = proxy._fifo_clamp(1, 2, 0.0, proxy._topology_delay(1, 2, 5000))
        small = proxy._fifo_clamp(1, 2, 0.001, proxy._topology_delay(1, 2, 10))
        assert 0.001 + small >= big  # the small frame cannot overtake


class TestTimerContract:
    def test_wan_rejects_lan_scale_timers(self):
        config = RacConfig.small(relay_timeout=0.2, predecessor_timeout=0.1)
        with pytest.raises(TopologyTimerError, match="relay_timeout"):
            check_timers(config, 0.05, topology=planet_diurnal(10))

    def test_rto_clamp_must_cover_the_worst_rtt(self):
        config = RacConfig.small(
            relay_timeout=60.0, predecessor_timeout=60.0, transport_rto_max=0.05
        )
        with pytest.raises(TopologyTimerError, match="transport_rto_max"):
            check_timers(config, 0.05, topology=planet_diurnal(10))

    def test_topo_defaults_pass_every_preset(self):
        config = timer_regime("detect", **WAN_ARQ)
        for name in PRESET_NAMES:
            check_timers(config, 0.05, topology=preset(name, 10))

    def test_system_enforces_at_bootstrap(self):
        config = timer_regime("detect", **WAN_ARQ, relay_timeout=0.2)
        system = RacSystem(config, seed=0, topology=wan_king(10))
        with pytest.raises(TopologyTimerError):
            system.bootstrap(10)

    def test_enforcement_is_bypassable_for_probes(self):
        config = timer_regime("detect", **WAN_ARQ, relay_timeout=0.2)
        system = RacSystem(config, seed=0, topology=wan_king(10), enforce_contract=False)
        assert len(system.bootstrap(10)) == 10

    def test_contract_floor_is_read_off_the_floors_not_bisected(self):
        # The floor(analytic) column of results/topology_sweep.txt, which
        # 40 rounds of try/except around the old validator used to find.
        from repro.experiments.topology_sweep import NODES, contract_floor_scale

        config = timer_regime("detect", **WAN_ARQ)
        column = {
            name: "x%.3g" % contract_floor_scale(preset(name, NODES), config, 0.05)
            for name in PRESET_NAMES
        }
        assert column == {
            "lan": "x0.05",
            "wan-king": "x0.0735",
            "hetero-access": "x0.0558",
            "planet-diurnal": "x0.0987",
        }
        # At that scale the tightest scaled timer sits exactly on its floor.
        floor = contract_floor_scale(wan_king(NODES), config, 0.05)
        check_timers(scale_timers(config, floor * (1 + 1e-9)), 0.05, topology=wan_king(NODES))
        with pytest.raises(TopologyTimerError):
            check_timers(scale_timers(config, floor * (1 - 1e-6)), 0.05, topology=wan_king(NODES))

    def test_scale_timers_scales_only_the_misbehaviour_timers(self):
        config = timer_regime("detect", **WAN_ARQ)
        half = scale_timers(config, 0.5)
        assert half.relay_timeout == pytest.approx(config.relay_timeout / 2)
        assert half.predecessor_timeout == pytest.approx(config.predecessor_timeout / 2)
        assert half.rate_window == pytest.approx(config.rate_window / 2)
        assert half.transport_rto_max == config.transport_rto_max
        with pytest.raises(ValueError):
            scale_timers(config, 0.0)


class TestTraces:
    def test_churn_plan_is_deterministic_and_valid(self):
        model = planet_diurnal(12, seed=0)
        a = diurnal_churn_plan(model, 12, 20.0, seed=4)
        b = diurnal_churn_plan(model, 12, 20.0, seed=4)
        assert a.fingerprint() == b.fingerprint()
        a.validate(12)
        assert a.schedule()  # the trace actually crashes someone
        assert a.fingerprint() != diurnal_churn_plan(model, 12, 20.0, seed=5).fingerprint()

    def test_churn_never_sleeps_a_whole_region(self):
        model = planet_diurnal(12, seed=0)
        plan = diurnal_churn_plan(model, 12, 20.0, seed=0, churn_fraction=1.0)
        sleepers = {event.node for event in plan.schedule() if event.kind == "crash"}
        for region in model.regions():
            members = {
                i for i in range(12) if model.region(model.slot(i)) == region
            }
            assert members - sleepers, f"region {region} fully asleep"

    def test_publish_times_flat_amplitude_is_fixed_interval(self):
        times = publish_times(4.0, 0.5, amplitude=0.0, start=0.2)
        assert times[0] == pytest.approx(0.2)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.5) for g in gaps)

    def test_publish_times_diurnal_modulates_the_rate(self):
        times = publish_times(20.0, 0.25, amplitude=0.8)
        gaps = {round(b - a, 6) for a, b in zip(times, times[1:])}
        assert len(gaps) > 1  # the rate actually varies
        assert all(0.0 < t < 20.0 for t in times)
        assert times == publish_times(20.0, 0.25, amplitude=0.8)  # deterministic


class TestRunHarness:
    def test_lan_equivalence_gate(self):
        plain, lan_digest = lan_equivalence(nodes=6, horizon=2.0)
        assert plain == lan_digest

    def test_wan_run_reports_metrics_and_stays_clean(self):
        params = {"topology": "wan-king", "nodes": 8, "horizon": 6.0}
        out = run_scenario(Scenario.from_params(params, 0, "topo"))
        assert out.ok
        assert out.deliveries
        assert out.latency_mean_s > 0.0
        assert out.honest_evictions == 0
        metrics = out.metrics()
        assert metrics["violations"] == 0.0
        assert metrics["detection_time_s"] == -1.0

    def test_churn_run_defaults_to_churn_tolerant_timers(self):
        # Diurnal reboots under WAN delay must never read as freeriding:
        # churn=1 moves the topo harness from the detect regime to heal
        # (chaos-scale timers above the trace's reboot windows).
        params = {"topology": "planet-diurnal", "nodes": 9, "horizon": 12.0, "churn": 1}
        scenario = Scenario.from_params(params, 1, "topo")
        assert scenario.regime == "heal" and scenario.plan == "diurnal"
        out = run_cell(scenario)
        assert out.ok, out.report.render()
        assert out.honest_evictions == 0

    def test_victim_behaviours_frame_the_node_opposite_them(self):
        # One lowering serves every harness: a topology run plants a
        # targeted behaviour exactly as a campaign cell does.
        params = {"topology": "lan", "nodes": 8, "horizon": 4.0, "deviant": "false-accuser"}
        run = prepare(Scenario.from_params(params, 0, "topo"))
        accuser = run.system.nodes[run.node_ids[3]].behavior
        assert accuser.victim == run.node_ids[(3 + 8 // 2) % 8]
