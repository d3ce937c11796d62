"""The queueing latency model against packet-level measurements."""

import pytest

from repro.analysis.queueing import LatencyModel, predicted_latency
from repro.experiments.latency import measure_latency


class TestModelForm:
    def test_linear_in_hops(self):
        base = predicted_latency(1, 0.05, 12, 2048)
        doubled = predicted_latency(3, 0.05, 12, 2048)
        assert doubled == pytest.approx(2 * base)

    def test_dominated_by_slot_wait_on_fast_links(self):
        model = LatencyModel(2, 0.05, 12, 2048, 1e9)
        assert model.dissemination_time < 0.01 * model.per_hop_slot_wait * model.hops

    def test_slow_links_add_dissemination(self):
        fast = predicted_latency(2, 0.05, 12, 2048, link_bps=1e9)
        slow = predicted_latency(2, 0.05, 12, 2048, link_bps=2e6)
        assert slow > fast

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_latency(0, 0.05, 12)
        with pytest.raises(ValueError):
            predicted_latency(1, 0.0, 12)


class TestModelVsMeasurement:
    @pytest.mark.parametrize("num_relays", [1, 2, 3])
    def test_measured_mean_within_35_percent(self, num_relays):
        measured = measure_latency(num_relays, population=10, messages=12, seed=77)
        predicted = predicted_latency(num_relays, 0.05, 10, 2048)
        assert measured.mean == pytest.approx(predicted, rel=0.35)
