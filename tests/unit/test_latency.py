"""Unit tests for the latency meter and system-level latency tracking."""

import pytest

from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.simnet.stats import LatencyMeter


class TestLatencyMeter:
    def test_mean(self):
        meter = LatencyMeter()
        for v in (1.0, 2.0, 3.0):
            meter.record(v)
        assert meter.mean() == pytest.approx(2.0)

    def test_percentiles(self):
        meter = LatencyMeter()
        for v in range(1, 101):
            meter.record(float(v))
        assert meter.percentile(50) == pytest.approx(50.0)
        assert meter.percentile(95) == pytest.approx(95.0)
        assert meter.percentile(100) == pytest.approx(100.0)

    def test_empty_meter(self):
        meter = LatencyMeter()
        assert meter.mean() == 0.0
        assert meter.percentile(50) == 0.0
        assert len(meter) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyMeter().record(-0.1)

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyMeter().percentile(101)


class TestSystemLatency:
    def test_delivery_latency_recorded(self):
        config = RacConfig(
            num_relays=2,
            num_rings=3,
            group_min=2,
            group_max=10**9,
            message_size=2048,
            send_interval=0.05,
            relay_timeout=1.0,
            predecessor_timeout=0.5,
            rate_window=1.0,
            blacklist_period=0.0,
            puzzle_bits=2,
        )
        system = RacSystem(config, seed=41)
        nodes = system.bootstrap(10)
        system.run(1.2)
        system.send(nodes[0], nodes[4], b"timed message")
        system.run(4.0)
        assert len(system.latency_meter) == 1
        latency = system.latency_meter.samples[0]
        # At least L+1 origination slots; comfortably under a second
        # for this configuration.
        assert 0.05 < latency < 2.0
