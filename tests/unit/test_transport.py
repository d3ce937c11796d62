"""Unit tests for the ARQ transport (reliable FIFO over lossy links)."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.network import StarNetwork
from repro.simnet.stats import StatsRegistry
from repro.simnet.transport import Ack, ReliableTransport, Segment


def make(loss_rate=0.0, seed=0, **transport_kwargs):
    sim = Simulator()
    faults = FaultInjector(sim, seed=seed, loss_rate=loss_rate)
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=faults)
    transport = ReliableTransport(net, **transport_kwargs)
    return sim, net, transport


class TestDelivery:
    def test_basic_delivery(self):
        sim, _net, transport = make()
        got = []
        transport.attach(1, lambda src, payload: got.append((src, payload)))
        transport.attach(2, lambda src, payload: None)
        transport.send(2, 1, {"k": "v"}, 100)
        sim.run()
        assert got == [(2, {"k": "v"})]

    def test_per_pair_fifo_despite_size_overtaking(self):
        # A huge message followed by a tiny one: the tiny one's packet
        # would arrive first without reassembly; FIFO must hold it back.
        sim, net, transport = make()
        got = []
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.attach(2, lambda src, payload: None)
        transport.attach(3, lambda src, payload: None)
        transport.send(2, 1, "big-then", 5000)
        transport.send(2, 1, "small", 10)
        sim.run()
        assert got == ["big-then", "small"]

    def test_header_overhead_charged(self):
        sim, net, transport = make()
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        transport.send(1, 2, "x", 100)
        sim.run()
        # One data segment plus its ACK cross the (lossless) network.
        assert net.bytes_delivered == (
            100 + ReliableTransport.HEADER_BYTES + ReliableTransport.ACK_BYTES
        )

    def test_messages_delivered_counter(self):
        sim, _net, transport = make()
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        for _ in range(3):
            transport.send(1, 2, "x", 10)
        sim.run()
        assert transport.messages_delivered == 3
        assert transport.segments_sent == 3
        assert transport.acks_sent == 3
        assert transport.retransmits == 0

    def test_bidirectional_pairs_are_independent(self):
        sim, _net, transport = make()
        got = {1: [], 2: []}
        transport.attach(1, lambda src, payload: got[1].append(payload))
        transport.attach(2, lambda src, payload: got[2].append(payload))
        transport.send(1, 2, "a", 10)
        transport.send(2, 1, "b", 10)
        sim.run()
        assert got == {1: ["b"], 2: ["a"]}

    def test_detach_stops_delivery(self):
        sim, _net, transport = make()
        got = []
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.attach(2, lambda *a: None)
        transport.send(2, 1, "x", 10)
        transport.detach(1)
        sim.run()
        assert got == []

    def test_raw_packet_rejected(self):
        sim, net, transport = make()
        transport.attach(1, lambda *a: None)
        net.send(1, 1, "not-a-segment", 10)
        with pytest.raises(TypeError):
            sim.run()


class TestArqRecovery:
    def test_delivers_through_heavy_loss(self):
        sim, net, transport = make(loss_rate=0.3, seed=11, max_retries=40)
        got = []
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.attach(2, lambda *a: None)
        for i in range(30):
            transport.send(2, 1, i, 50)
        sim.run()
        assert got == list(range(30))  # exactly once, in order
        assert transport.retransmits > 0
        assert net.packets_dropped > 0

    def test_lost_ack_causes_duplicate_which_is_suppressed(self):
        # Drop only node 1's downlink: data still reaches node 2, but
        # every ACK flowing 2 -> 1 is eaten, forcing retransmissions.
        sim, net, transport = make()
        net.faults.set_loss_rate(1.0 - 1e-9, node_id=1, direction="down")
        got = []
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda src, payload: got.append(payload))
        transport.send(1, 2, "once", 10)
        sim.run(until=1.0)
        net.faults.set_loss_rate(0.0, node_id=1, direction="down")
        sim.run()
        assert got == ["once"]  # delivered exactly once to the app
        assert transport.duplicates > 0  # but retransmitted on the wire
        assert transport.in_flight(1, 2) == 0  # a late ACK settled it

    def test_retry_exhaustion_fires_failure_callback(self):
        failures = []
        sim, net, transport = make(
            max_retries=3, on_failure=lambda s, d, p: failures.append((s, d, p))
        )
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        net.detach(2)  # peer vanishes below the transport
        transport.send(1, 2, "doomed", 10)
        sim.run()
        assert failures == [(1, 2, "doomed")]
        assert transport.delivery_failures == 1
        assert transport.in_flight(1, 2) == 0

    def test_exponential_backoff_spacing(self):
        sim, net, transport = make(rto_initial=0.1, rto_min=0.1, max_retries=3)
        sends = []
        original = net.send

        def spy(src, dst, payload, size):
            if isinstance(payload, Segment):
                sends.append(sim.now)
            original(src, dst, payload, size)

        net.send = spy
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        net.detach(2)
        transport.send(1, 2, "x", 10)
        sim.run()
        assert len(sends) == 4  # original + 3 retries
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert gaps[0] == pytest.approx(0.1, rel=1e-6)
        assert gaps[1] == pytest.approx(0.2, rel=1e-6)
        assert gaps[2] == pytest.approx(0.4, rel=1e-6)

    def test_backoff_capped_at_rto_max(self):
        sim, net, transport = make(rto_initial=0.1, rto_min=0.1, rto_max=0.15, max_retries=2)
        sends = []
        original = net.send

        def spy(src, dst, payload, size):
            if isinstance(payload, Segment):
                sends.append(sim.now)
            original(src, dst, payload, size)

        net.send = spy
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        net.detach(2)
        transport.send(1, 2, "x", 10)
        sim.run()
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert all(g <= 0.15 + 1e-9 for g in gaps)


class TestRttEstimator:
    def test_srtt_converges_to_path_rtt(self):
        sim, _net, transport = make()
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        for _ in range(20):
            transport.send(1, 2, "x", 100)
            sim.run()  # drain: every sample sees the unloaded path
        srtt = transport.srtt(1, 2)
        assert srtt is not None
        # Two links + propagation each way, a few milliseconds at 1 Mb/s.
        assert 0.0 < srtt < 0.02
        assert transport.rto(1, 2) == transport.rto_min  # clamped

    def test_rto_before_any_sample_is_initial(self):
        _sim, _net, transport = make(rto_initial=0.07)
        assert transport.rto(5, 6) == pytest.approx(0.07)

    def test_retransmit_sample_measures_the_retransmission(self):
        # Timestamp echo (the TCP timestamps option): the ACK names the
        # exact transmission it acknowledges, so a retransmitted
        # segment contributes the *retransmission's* RTT — never the
        # inflated span back to the original send (Karn's ambiguity).
        sim, net, transport = make()
        net.faults.set_loss_rate(0.9999, node_id=2, direction="down")
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        transport.send(1, 2, "x", 10)
        sim.run(until=0.04)
        net.faults.set_loss_rate(0.0, node_id=2, direction="down")
        sim.run()
        assert transport.messages_delivered == 1
        assert transport.retransmits > 0
        srtt = transport.srtt(1, 2)
        assert srtt is not None
        # The path RTT is a few ms; measuring from the original send
        # would have reported ~50 ms (the whole retransmission saga).
        assert srtt < 0.02

    def test_stats_registry_surfaces_transport_counters(self):
        stats = StatsRegistry()
        sim, net, transport = make(loss_rate=0.2, seed=3, max_retries=30, stats=stats)
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        # the per-segment tallies are read off the transport: absent while zero
        assert stats.as_dict() == {} and stats.value("transport_segments_sent") == 0
        for _ in range(20):
            transport.send(1, 2, "x", 50)
        sim.run()
        report = stats.as_dict()
        assert list(report) == sorted(report)
        assert report["transport_segments_sent"] == stats.value("transport_segments_sent") == 20
        assert report["transport_retransmits"] == transport.retransmits > 0
        assert report["transport_acks_sent"] == transport.acks_sent
        assert report["transport_rtt_samples"] == transport.rtt_samples > 0
        assert report["transport_rtt_us_total"] == transport.rtt_us_total > 0


class TestDetachStateCleared:
    """Regression: detach used to leak per-pair ARQ state, so a node
    that crashed and re-attached replayed stale sequence numbers and
    wedged the receiver's hold-back queue."""

    def test_crash_and_rejoin_round_trip(self):
        sim, _net, transport = make()
        got = []
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.attach(2, lambda *a: None)
        for i in range(3):
            transport.send(2, 1, f"pre-{i}", 10)
        sim.run()
        assert got == ["pre-0", "pre-1", "pre-2"]

        transport.detach(2)  # node 2 crashes...
        sim.run()
        transport.attach(2, lambda *a: None)  # ...and reboots fresh

        for i in range(3):
            transport.send(2, 1, f"post-{i}", 10)
        sim.run()
        # Without state clearing, post-* segments restart at seqno 0,
        # look like duplicates of pre-* to node 1, and are swallowed.
        assert got == ["pre-0", "pre-1", "pre-2", "post-0", "post-1", "post-2"]

    def test_receiver_crash_and_rejoin(self):
        sim, _net, transport = make()
        got = []
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.attach(2, lambda *a: None)
        transport.send(2, 1, "a", 10)
        sim.run()
        transport.detach(1)
        sim.run()
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.send(2, 1, "b", 10)
        sim.run()
        # Node 2's sender state for the pair was also reset at 1's
        # crash, so 1 (expecting seqno 0 again) accepts the message.
        assert got == ["a", "b"]

    def test_detach_cancels_retransmission_timers(self):
        sim, _net, transport = make(rto_initial=0.5)
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        transport.detach(2)
        transport.attach(2, lambda *a: None)
        transport.send(1, 2, "x", 10)
        transport.detach(1)  # sender gone: pending timer must die
        sim.run()
        assert transport.retransmits == 0
        assert transport.delivery_failures == 0
        assert transport.in_flight(1, 2) == 0


class TestWireTypes:
    def test_segment_fields(self):
        segment = Segment(3, "payload", ts=1.25)
        assert segment.seqno == 3
        assert segment.payload == "payload"
        assert segment.ts == 1.25

    def test_ack_fields(self):
        ack = Ack(7, echo_ts=1.25)
        assert ack.seqno == 7
        assert ack.echo_ts == 1.25
