"""Packet-level validation of the analytic throughput model.

The Figure 1/3 sweeps to N = 100 000 use the closed-form saturation
model; these tests pin that model to the real protocol by measuring the
packet simulator at small N and asserting (a) a stable efficiency
factor and (b) the 1/G scaling the figures rely on.

These are the slowest tests in the suite (tens of wall seconds): they
run a saturated packet simulation end to end.
"""

import pytest

from repro.experiments.empirical import measure_rac_throughput
from repro.experiments.fig1 import empirical_dissent_v1_point, empirical_dissent_v2_point
from repro.analysis.throughput import dissent_v1_throughput, dissent_v2_throughput


class TestRacModelValidation:
    @pytest.fixture(scope="class")
    def measurements(self):
        return {
            n: measure_rac_throughput(n, warmup=1.0, duration=4.0, seed=2)
            for n in (8, 16)
        }

    def test_measured_within_model_envelope(self, measurements):
        # Saturation margin (1.25) and slot sharing bound efficiency
        # from above by 0.8; protocol overheads keep it above ~0.4.
        for m in measurements.values():
            assert 0.4 < m.efficiency <= 1.0, m

    def test_efficiency_stable_across_sizes(self, measurements):
        effs = [m.efficiency for m in measurements.values()]
        assert max(effs) / min(effs) < 1.5

    def test_one_over_g_scaling(self, measurements):
        t8 = measurements[8].measured_bps_per_node
        t16 = measurements[16].measured_bps_per_node
        assert t8 / t16 == pytest.approx(2.0, rel=0.35)

    def test_no_evictions_at_saturation(self, measurements):
        # Saturated honest traffic must not trip the misbehaviour
        # checks (no false positives under load).
        for m in measurements.values():
            assert m.evictions == 0

    def test_plenty_of_deliveries(self, measurements):
        for m in measurements.values():
            assert m.deliveries > 50


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 8(a): grouped saturation at N=32 evicts honest nodes (the first at 6.59 s; "
    "6 over the full 8 s run)"
))
def test_grouped_saturation_evicts_no_honest_node():
    # SATURATION with groups of 4-8, nothing planted. The window stops
    # 0.16 s past the first honest eviction; the warm-up keeps the full
    # run's refill instants, so the run up to there is the full run's.
    from unittest import mock

    from repro.experiments import empirical

    with mock.patch.dict(empirical.SATURATION, group_min=4, group_max=8):
        m = measure_rac_throughput(32, warmup=2.0, duration=4.75, seed=1)
    assert m.evictions == 0


class TestBaselineModelValidation:
    def test_dissent_v1_counted_cost_matches_model_shape(self):
        # Empirical per-node goodput from counted wire copies must scale
        # like the analytic 1/N^2 (ratio 4 when N doubles).
        e8 = empirical_dissent_v1_point(8, message_length=1000)
        e16 = empirical_dissent_v1_point(16, message_length=1000)
        assert e8 / e16 == pytest.approx(4.0, rel=0.35)

    def test_dissent_v1_magnitude_near_model(self):
        measured = empirical_dissent_v1_point(10, message_length=1000)
        model = dissent_v1_throughput(10)
        assert 0.2 < measured / model < 5.0

    def test_dissent_v2_bottleneck_grows_with_n(self):
        e8 = empirical_dissent_v2_point(8, message_length=1000, servers=2)
        e32 = empirical_dissent_v2_point(32, message_length=1000, servers=2)
        assert e8 > e32  # decaying with N at fixed servers

    def test_dissent_v2_magnitude_near_model(self):
        measured = empirical_dissent_v2_point(16, message_length=1000, servers=4)
        model = dissent_v2_throughput(16, servers=4)
        assert 0.1 < measured / model < 10.0
