"""Unit tests for RacConfig validation and derived thresholds."""

import pytest

from repro.chaos.plan import FaultPlan, canned_plan
from repro.core.config import (
    TIMER_REGIMES,
    WAN_ARQ,
    RacConfig,
    TopologyTimerError,
    check_timers,
    scale_timers,
    timer_floors,
    timer_regime,
)
from repro.topo.model import PRESET_NAMES, preset
from repro.topo.traces import diurnal_churn_plan


def small(**overrides):
    base = dict(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=100,
        message_size=2048,
        puzzle_bits=2,
    )
    base.update(overrides)
    return RacConfig(**base)


class TestValidation:
    def test_paper_defaults(self):
        config = RacConfig()
        assert config.num_relays == 5
        assert config.num_rings == 7
        assert config.message_size == 10_000

    def test_zero_relays_rejected(self):
        with pytest.raises(ValueError):
            small(num_relays=0)

    def test_zero_rings_rejected(self):
        with pytest.raises(ValueError):
            small(num_rings=0)

    def test_tiny_groups_rejected(self):
        with pytest.raises(ValueError):
            small(group_min=1)

    def test_group_max_must_allow_splitting(self):
        with pytest.raises(ValueError):
            small(group_min=10, group_max=19)

    def test_tiny_messages_rejected(self):
        with pytest.raises(ValueError):
            small(message_size=100)

    def test_majority_opponents_rejected(self):
        with pytest.raises(ValueError):
            small(assumed_opponent_fraction=0.5)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            small(key_backend="rot13")


class TestThresholds:
    def test_predecessor_threshold_is_t_plus_one(self):
        config = small(num_rings=7, assumed_opponent_fraction=0.1)
        # t = ceil(0.1 * 7) = 1, threshold = 2
        assert config.predecessor_accusation_threshold() == 2

    def test_predecessor_threshold_capped_by_rings(self):
        config = small(num_rings=3, assumed_opponent_fraction=0.4)
        # t = min(R-1, ceil(0.4*3)=2) = 2, threshold 3
        assert config.predecessor_accusation_threshold() == 3

    def test_relay_threshold_is_fg_plus_one(self):
        config = small(assumed_opponent_fraction=0.1)
        assert config.relay_accusation_threshold(50) == 6
        assert config.relay_accusation_threshold(14) == 2

    def test_zero_opponents_means_single_accuser(self):
        config = small(assumed_opponent_fraction=0.0)
        assert config.relay_accusation_threshold(1000) == 1
        assert config.predecessor_accusation_threshold() == 1


class TestTimerContract:
    """The one floor (`timer_floors`) and the one table of regimes."""

    def test_lan_floors_are_the_protocol_arithmetic(self):
        config = RacConfig.small()
        floors = {(f.timer, f.term): f for f in timer_floors(config, 0.05)}
        assert floors[("relay_timeout", "lan")].floor == pytest.approx(4 * 0.05)  # L+2 slots
        assert floors[("predecessor_timeout", "lan")].floor == pytest.approx(2 * 0.05)
        assert all(f.term == "lan" and f.met for f in floors.values())

    def test_a_breach_names_the_timer_the_term_and_the_floor(self):
        with pytest.raises(ValueError, match=r"relay_timeout=0.1s is below its lan floor of 0.2s"):
            check_timers(RacConfig.small(relay_timeout=0.1), 0.05)
        with pytest.raises(ValueError, match="retransmission budget"):
            check_timers(RacConfig.small(link_loss_rate=0.05, predecessor_timeout=0.15), 0.05)

    def test_topology_breach_keeps_its_typed_error(self):
        config = RacConfig.small(relay_timeout=0.25)
        with pytest.raises(TopologyTimerError, match="planet-diurnal"):
            check_timers(config, 0.05, topology=preset("planet-diurnal", 10))
        check_timers(config, 0.05)  # the same timers are fine on the LAN star

    def test_window_term_is_strict(self):
        # A timer equal to the window fires the instant the fault heals.
        plan = FaultPlan(horizon=10.0).partition([0], [1], at=1.0, duration=4.0)
        with pytest.raises(ValueError, match="misbehaviour timers"):
            check_timers(timer_regime("detect"), 0.05, plan=plan)
        check_timers(timer_regime("detect", rate_window=4.01, relay_timeout=4.01,
                                  predecessor_timeout=4.01), 0.05, plan=plan)

    def test_permanent_crashes_and_live_only_events_set_no_window(self):
        plan = (
            FaultPlan(horizon=60.0)
            .crash(0, at=1.0)
            .reorder(1, window=4, at=1.0, duration=30.0)
            .directory_outage(at=2.0, duration=30.0)
        )
        assert all(f.floor == 0.0 for f in timer_floors(RacConfig.small(), 0.05, plan=plan)
                   if f.term == "window")

    def test_unknown_regime_lists_the_table(self):
        with pytest.raises(ValueError, match="detect, heal, wall, wall-heal"):
            timer_regime("relaxed")

    @pytest.mark.parametrize("regime", sorted(TIMER_REGIMES))
    def test_every_regime_clears_its_lan_floor(self, regime):
        config = timer_regime(regime)
        check_timers(config, config.derived_send_interval(10))

    @pytest.mark.parametrize("regime", ["detect", "heal"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_sim_regimes_clear_every_preset_with_the_wan_arq(self, regime, name):
        check_timers(timer_regime(regime, **WAN_ARQ), 0.05, topology=preset(name, 10))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_wall_heal_clears_every_preset(self, name):
        check_timers(timer_regime("wall-heal"), 0.1, topology=preset(name, 10))

    def test_detect_clears_every_committed_campaign_window(self):
        # The four canned CampaignSpecs: worst healing window 2.0 s,
        # 2.33 s, 1.74 s and 1.74 s against the 4 s timers.
        from repro.campaign import CampaignSpec

        config = timer_regime("detect")
        for spec in (
            CampaignSpec.smoke(), CampaignSpec.full(),
            CampaignSpec.coalition(), CampaignSpec.coalition_smoke(),
        ):
            for plan_name in spec.plans:
                for nodes in spec.group_sizes:
                    for seed in spec.seeds:
                        plan = canned_plan(plan_name, nodes, spec.horizon, seed)
                        check_timers(config, 0.05, plan=plan)
                        assert _worst_window(config, plan) <= 2.34

    def test_heal_clears_the_soak_and_the_diurnal_trace(self):
        config = timer_regime("heal")
        soak = [canned_plan("smoke", 8, 24.0, s) for s in (0, 1)]
        soak += [canned_plan("storm", 8, 30.0, s) for s in (0, 1, 2)]
        for plan in soak:
            check_timers(config, 0.05, plan=plan)
        assert max(_worst_window(config, plan) for plan in soak) == pytest.approx(4.0)
        model = preset("planet-diurnal", 9)
        trace = diurnal_churn_plan(model, 9, 12.0, seed=1)
        check_timers(timer_regime("heal", **WAN_ARQ), 0.05, topology=model, plan=trace)
        # No reboot outlasts the region's night: 0.22 x 12 s = 2.64 s.
        assert 2.0 < _worst_window(config, trace) <= 2.64

    def test_scale_timers_rejects_nonpositive_factors(self):
        with pytest.raises(ValueError):
            scale_timers(RacConfig.small(), -1.0)


def _worst_window(config, plan) -> float:
    return max(f.floor for f in timer_floors(config, 0.05, plan=plan) if f.term == "window")
