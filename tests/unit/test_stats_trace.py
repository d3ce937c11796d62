"""Unit tests for stats meters and the tracer."""

import pytest

from repro.simnet.stats import StatsRegistry, ThroughputMeter, aggregate_stats_reports
from repro.simnet.trace import TraceEvent, Tracer


class TestThroughputMeter:
    def test_throughput_over_window(self):
        meter = ThroughputMeter()
        meter.record(1.0, 1000)
        meter.record(2.0, 1000)
        # 2000 bytes over [0, 2] seconds = 8000 bits/s
        assert meter.throughput_bps(0.0, 2.0) == pytest.approx(8000)

    def test_window_excludes_outside_samples(self):
        meter = ThroughputMeter()
        meter.record(0.5, 1000)
        meter.record(5.0, 1000)
        assert meter.throughput_bps(1.0, 3.0) == pytest.approx(0.0)

    def test_empty_meter(self):
        assert ThroughputMeter().throughput_bps() == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter().record(0.0, -1)

    def test_deliveries_count(self):
        meter = ThroughputMeter()
        for t in (0.1, 0.2, 5.0):
            meter.record(t, 10)
        assert meter.count == 3

    def test_default_end_is_last_sample(self):
        meter = ThroughputMeter()
        meter.record(2.0, 250)
        assert meter.throughput_bps() == pytest.approx(1000)


class TestStatsRegistry:
    def test_counters_accumulate(self):
        stats = StatsRegistry()
        stats.add("x")
        stats.add("x", 4)
        assert stats.value("x") == 5

    def test_missing_counter_is_zero(self):
        assert StatsRegistry().value("nope") == 0

    def test_as_dict_sorted(self):
        stats = StatsRegistry()
        stats.add("b")
        stats.add("a")
        assert list(stats.as_dict()) == ["a", "b"]


class TestTracer:
    def test_records_and_filters(self):
        tracer = Tracer()
        tracer.record(1.0, "send", node=5, size=100)
        tracer.record(2.0, "recv", node=6)
        assert len(tracer) == 2
        assert [e.node for e in tracer.of_kind("send")] == [5]

    def test_disabled_tracer_is_silent(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "send", node=5)
        assert len(tracer) == 0

    def test_kinds_tally(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.record(0.0, "a")
        tracer.record(0.0, "b")
        assert tracer.kinds() == {"a": 3, "b": 1}

    def test_render_includes_details(self):
        tracer = Tracer()
        tracer.record(0.001, "evt", node=7, foo="bar")
        text = tracer.render()
        assert "node 7" in text and "foo=bar" in text

    def test_event_str_system_scope(self):
        event = TraceEvent(0.0, "boot", None, {})
        assert "system" in str(event)


class TestAggregateStatsReports:
    def test_engine_counters_sum_across_shards(self):
        # One engine per shard: the deployment-wide report must be the
        # sum of the shard engines' counters, not any single engine's.
        shard_a = {
            "sim_events_processed": 1000,
            "sim_events_cancelled": 10,
            "sim_queue_compactions": 1,
            "deliveries": 4,
        }
        shard_b = {
            "sim_events_processed": 2500,
            "sim_events_cancelled": 30,
            "sim_queue_compactions": 2,
            "deliveries": 7,
        }
        merged = aggregate_stats_reports([shard_a, shard_b])
        assert merged["sim_events_processed"] == 3500
        assert merged["sim_events_cancelled"] == 40
        assert merged["sim_queue_compactions"] == 3
        assert merged["deliveries"] == 11

    def test_missing_keys_count_as_zero(self):
        # Shards legitimately differ (only one hosts the deviant's
        # group), so a key absent from some shards still aggregates.
        merged = aggregate_stats_reports([{"evictions": 1}, {}, {"noise_sent": 5}])
        assert merged == {"evictions": 1, "noise_sent": 5}

    def test_empty_input(self):
        assert aggregate_stats_reports([]) == {}
