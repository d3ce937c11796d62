"""Unit tests for the cost notation, the throughput model and the
capacity table."""

import math

import pytest

from repro.analysis import capacity, costs, throughput
from repro.core.config import RacConfig


class TestCostModels:
    def test_dissent_v1_signature(self):
        model = costs.dissent_v1_cost(100)
        assert model.terms == ((100, 100),)
        assert model.total_copies() == 10_000

    def test_dissent_v2_terms(self):
        model = costs.dissent_v2_cost(100, servers=10)
        assert model.terms == ((1, 10.0), (10, 10))

    def test_optimal_server_count_near_sqrt(self):
        assert costs.optimal_server_count(10_000) == 100
        assert abs(costs.optimal_server_count(100_000) - 316) <= 2

    def test_optimal_server_count_minimizes_load(self):
        n = 5000
        best = costs.optimal_server_count(n)
        load = best + n / best
        for s in (best - 1, best + 1):
            if s >= 2:
                assert s + n / s >= load - 1e-9

    def test_rac_grouped_equivalence(self):
        # (L-1)*R*Bcast(G) + R*Bcast(2G) == (L+1)*R*Bcast(G)
        model = costs.rac_cost(100_000, G=1000, L=5, R=7)
        assert model.bcast_units(1000) == pytest.approx((5 + 1) * 7)

    def test_rac_single_group_falls_back_to_nogroup(self):
        model = costs.rac_cost(500, G=1000, L=5, R=7)
        assert model.protocol == "rac-nogroup"
        assert model.terms == (((5 + 1) * 7, 500),)

    def test_onion_cost_is_l_copies(self):
        assert costs.onion_routing_cost(5).total_copies() == 5

    def test_describe_readable(self):
        text = costs.rac_cost(100_000, 1000, 5, 7).describe()
        assert "Bcast(1000)" in text and "Bcast(2000)" in text

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            costs.dissent_v1_cost(1)
        with pytest.raises(ValueError):
            costs.dissent_v2_cost(100, servers=1)
        with pytest.raises(ValueError):
            costs.onion_routing_cost(0)
        with pytest.raises(ValueError):
            costs.rac_nogroup_cost(100, 0, 7)


class TestThroughputModel:
    C = throughput.GBPS

    def test_onion_anchor_200mbps(self):
        assert throughput.onion_routing_throughput(100_000, self.C, L=5) == pytest.approx(200e6)

    def test_dissent_v1_quadratic_decay(self):
        t1 = throughput.dissent_v1_throughput(1000, self.C)
        t2 = throughput.dissent_v1_throughput(10_000, self.C)
        assert t1 / t2 == pytest.approx(100.0)

    def test_dissent_v2_power_1_5_decay(self):
        t1 = throughput.dissent_v2_throughput(1000, self.C)
        t2 = throughput.dissent_v2_throughput(100_000, self.C)
        assert t1 / t2 == pytest.approx(100 ** 1.5, rel=0.05)

    def test_rac_constant_beyond_group_size(self):
        t1 = throughput.rac_throughput(2000, self.C)
        t2 = throughput.rac_throughput(100_000, self.C)
        assert t1 == t2 == pytest.approx(self.C / (6 * 7 * 1000))

    def test_rac_nogroup_linear_decay(self):
        t1 = throughput.rac_nogroup_throughput(1000, self.C)
        t2 = throughput.rac_nogroup_throughput(10_000, self.C)
        assert t1 / t2 == pytest.approx(10.0)

    def test_rac_configs_equal_below_group_size(self):
        for n in (100, 500, 999):
            assert throughput.rac_throughput(n, self.C) == throughput.rac_nogroup_throughput(
                n, self.C
            )

    def test_paper_ratios_at_100k(self):
        n = 100_000
        dv2 = throughput.dissent_v2_throughput(n, self.C)
        assert throughput.rac_nogroup_throughput(n, self.C) / dv2 == pytest.approx(15, rel=0.05)
        assert throughput.rac_throughput(n, self.C) / dv2 == pytest.approx(1500, rel=0.05)

    def test_rac_1000_beats_dissent_v2_beyond_crossover(self):
        # Figure 3: the curves cross around N=1000.
        assert throughput.rac_throughput(10_000, self.C) > throughput.dissent_v2_throughput(
            10_000, self.C
        )
        # Below the crossover Dissent v2 is faster (as in the figure).
        assert throughput.rac_throughput(100, self.C) < throughput.dissent_v2_throughput(
            100, self.C
        )

    def test_sweep_shape(self):
        models = throughput.PROTOCOLS()
        data = throughput.sweep(models, [100, 1000])
        assert set(data) == {"RAC-NoGroup", "RAC-1000", "Dissent v1", "Dissent v2", "Onion routing"}
        assert all(len(series) == 2 for series in data.values())

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            throughput.dissent_v1_throughput(1)
        with pytest.raises(ValueError):
            throughput.rac_throughput(100, 0)


class TestCapacityModel:
    def test_group_rate_is_size_free(self):
        model = capacity.CapacityModel(RacConfig())
        # C / ((L+1) * R * M * 8): members add uplinks and cover in
        # lockstep, so the per-group rate has no g term at all.
        config = model.config
        expected = config.link_bandwidth_bps / (
            (config.num_relays + 1) * config.num_rings * config.message_size * 8
        )
        assert model.group_msgs_per_sec() == pytest.approx(expected)

    def test_plan_inverts_to_groups(self):
        model = capacity.CapacityModel(RacConfig())
        point = model.plan(1000.0, anonymity_degree=500, subscribers_per_topic=10)
        per_group = model.group_msgs_per_sec()
        assert point.groups == max(1, math.ceil(1000.0 * 10 / per_group))
        assert point.members == point.groups * 500
        assert point.publishes_per_sec == pytest.approx(point.groups * per_group / 10)

    def test_plan_validates(self):
        model = capacity.CapacityModel(RacConfig())
        with pytest.raises(ValueError):
            model.plan(0.0, 500)
        with pytest.raises(ValueError):
            model.plan(1.0, model.config.group_min - 1)
        with pytest.raises(ValueError):
            model.publishes_per_sec(1, 0)

    def test_table_renders(self):
        points = capacity.capacity_table(RacConfig())
        text = capacity.render_capacity_table(points, RacConfig())
        assert "anonymity degree" in text
        assert len(points) == 4 * 3 * 3
