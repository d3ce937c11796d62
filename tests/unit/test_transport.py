"""Unit tests for the transport: the ARQ (reliable FIFO over lossy
links) and the direct path a lossless star takes, sequenced where the
star can reorder."""

import pytest

from repro.core.config import RacConfig, timer_regime
from repro.core.system import RacSystem
from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.network import StarNetwork
from repro.simnet.transport import SEQUENCED, Ack, ReliableTransport, Segment

#: A node no test attaches: a loss rate on its links draws nothing for
#: any packet, but leaves the injector not faultless, so the transport
#: runs the ARQ.
UNUSED = 99


def make(loss_rate=0.0, seed=0, **transport_kwargs):
    """A 1 Mb/s star whose transport runs the ARQ, lossless or not."""
    sim = Simulator()
    faults = FaultInjector(sim, seed=seed, loss_rate=loss_rate)
    faults.set_loss_rate(0.5, node_id=UNUSED)
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=faults)
    transport = ReliableTransport(net, **transport_kwargs)
    return sim, net, transport


def make_direct(**network_kwargs):
    """A 1 Mb/s lossless, faultless star: the transport goes direct."""
    sim = Simulator()
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=FaultInjector(sim), **network_kwargs)
    return sim, net, ReliableTransport(net)


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
        got = []
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda src, payload: got.append(payload))
        for _ in range(3):
            transport.send(1, 2, "x", 10)
        sim.run()
        assert got == ["x"] * 3
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
        assert transport.retransmits > 0
        srtt = transport.srtt(1, 2)
        assert srtt is not None
        # The path RTT is a few ms; measuring from the original send
        # would have reported ~50 ms (the whole retransmission saga).
        assert srtt < 0.02

    def test_stats_report_surfaces_transport_counters(self):
        # The ARQ keeps its tallies as plain ints and nowhere else; the
        # system's report names them ``transport_*``, absent while zero.
        system = RacSystem(timer_regime("heal", link_loss_rate=0.05), seed=3)
        nodes = system.bootstrap(6)
        system.send(nodes[0], nodes[3], b"x")
        system.run(1.5)
        transport, report = system.transport, system.stats_report()
        tallies = {name: getattr(transport, name) for name in transport.TALLIES}
        assert all(type(tally) is int for tally in tallies.values())
        assert transport.retransmits > 0 and transport.rtt_us_total > 0
        assert {k: v for k, v in report.items() if k.startswith("transport_")} == {
            "transport_" + name: tally for name, tally in tallies.items() if tally
        }
        assert not any(name.startswith("transport_") for name in system.stats.as_dict())


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


class TestRetransmitTickets:
    """A transmission takes a ticket, and one watch entry per transport
    stands at the earliest live one."""

    def test_acks_leave_one_arq_entry_in_the_calendar(self):
        sim, _net, transport = make()
        for node in (1, 2, 3):
            transport.attach(node, lambda *a: None)
        for i in range(20):
            transport.send(1 + i % 3, 1 + (i + 1) % 3, i, 100)
        arq = [entry for entry in sim._queue if entry[2] == transport._on_timeout]
        assert len(arq) == 1 and arq[0][3][0] == transport._watch
        sim.run()
        assert transport.retransmits == 0 and transport._watch is None

    def test_a_stale_watch_never_times_out_the_next_incarnation(self):
        # The old incarnation's watch entry fires while the re-attached
        # pair has a segment out under the same seqno: the ticket, not
        # (pair, seqno), decides, so nothing retransmits before the new
        # segment's own ticket.
        sim, _net, transport = make(rto_initial=0.5)
        transport.attach(1, lambda *a: None)
        transport.send(1, 2, "old", 10)  # 2 is not attached: lost at the router
        stale = transport._watch
        sim.run(until=0.1)
        transport.detach(1)  # crash...
        transport.attach(1, lambda *a: None)  # ...and restart
        sim.run(until=0.2)
        transport.send(1, 2, "new", 10)  # seqno 0 again
        fresh = transport._senders[(1, 2)].outstanding[0].ticket
        assert transport._watch == stale and stale[0] < fresh[0] - 1e-3
        sim.run(until=fresh[0] - 1e-3)  # the stale entry has fired
        assert transport.retransmits == 0 and transport._watch == fresh
        sim.run(until=fresh[0])
        assert transport.retransmits == 1


class TestDirectPath:
    """A star that can never lose a packet: each segment is sent once,
    with its ACK's bytes charged to the receiver's uplink and nothing
    else; the bare payload unless the star can reorder."""

    def test_per_pair_fifo_without_a_holdback_queue(self):
        sim, net, transport = make_direct()
        got = []
        transport.attach(1, lambda src, payload: got.append((sim.now, src, payload)))
        transport.attach(2, lambda *a: None)
        transport.attach(3, lambda *a: None)
        transport.send(2, 1, "big-then", 5000)
        transport.send(2, 1, "small", 10)
        transport.send(3, 1, "other", 10)
        sim.run()
        assert transport.direct is True
        assert [payload for _t, src, payload in got if src == 2] == ["big-then", "small"]
        assert sorted(payload for _t, _src, payload in got) == ["big-then", "other", "small"]
        assert not transport._senders and not transport._receivers
        assert transport._watch is None and transport.in_flight(2, 1) == 0
        assert (transport.segments_sent, transport.acks_sent) == (3, 3)
        assert (transport.retransmits, transport.rtt_samples, transport.duplicates) == (0, 0, 0)

    def test_data_and_header_cross_the_network_and_the_ack_only_the_uplink(self):
        sim, net, transport = make_direct()
        arrived = []
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda src, payload: arrived.append(sim.now))
        transport.send(1, 2, "x", 100)
        sim.run()
        data = 100 + ReliableTransport.HEADER_BYTES
        assert (net.packets_delivered, net.bytes_delivered) == (1, data)
        uplink = net.uplinks[2]  # the receiver's: its ACK leaves here
        ack_time = ReliableTransport.ACK_BYTES * 8 / 1_000_000
        assert (uplink.bytes_carried, uplink.packets_carried) == (ReliableTransport.ACK_BYTES, 1)
        assert uplink.busy_until == arrived[0] + ack_time
        assert uplink.busy_seconds == pytest.approx(ack_time)
        # the sender's downlink never sees the ACK
        assert net.downlinks[1].bytes_carried == 0 and net.downlinks[1].busy_until == 0.0
        assert sim.events_processed == 2  # the uplink hop and the downlink delivery

    def test_the_ack_charge_queues_behind_the_receivers_own_backlog(self):
        sim, net, transport = make_direct()
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda src, payload: transport.send(2, 1, "reply", 1000))
        transport.send(1, 2, "x", 100)
        sim.run()
        # the ACK went first (charged before the handler ran), the reply behind it
        uplink = net.uplinks[2]
        assert uplink.bytes_carried == ReliableTransport.ACK_BYTES + 1000 + ReliableTransport.HEADER_BYTES
        assert uplink.packets_carried == 2 and transport.acks_sent == 2

    def test_a_segment_to_a_detached_node_is_dropped_once(self):
        for jitter in (0.0, 10e-3):  # bare, then sequenced
            failures = []
            sim, net, transport = make_direct(propagation_jitter=jitter)
            transport.on_failure = lambda *a: failures.append(a)
            got = []
            transport.attach(1, lambda src, payload: got.append(payload))
            transport.attach(2, lambda *a: None)
            transport.send(2, 1, "x", 10)
            transport.detach(1)
            sim.run()
            assert transport.direct
            assert got == [] and failures == []
            assert net.drops_by_reason == {"detached": 1} and net.packets_dropped == 1
            assert (transport.retransmits, transport.delivery_failures, transport.acks_sent) == (0, 0, 0)
            assert sim.events_processed == 1  # one hop, no retransmission

    def test_the_choice_is_final(self):
        sim, net, transport = make_direct()
        transport.attach(1, lambda *a: None)
        transport.attach(2, lambda *a: None)
        faults = net.faults
        transport.send(1, 2, "x", 10)
        assert transport.direct is True and faults.sealed
        for add_fault in (
            lambda: faults.set_loss_rate(0.1),
            lambda: faults.set_loss_rate(0.1, node_id=UNUSED),
            faults.plan_loss,
            lambda: faults.schedule_outage(1, 1.0, 1.0),
            lambda: faults.schedule_partition([1], [2], 1.0, 1.0),
            lambda: faults.schedule_degradation(1, 1.0, 1.0, 0.5),
        ):
            with pytest.raises(SimulationError, match="sealed"):
                add_fault()
        faults.set_loss_rate(0.0)  # a zero rate adds no fault
        assert faults.faultless and not faults.edges
        sim.run()
        assert net.packets_delivered == 1 and transport.direct is True

    def test_a_fault_planned_before_the_first_send_chooses_the_arq(self):
        for plan in (
            lambda faults: faults.set_loss_rate(0.1, node_id=UNUSED),
            lambda faults: faults.plan_loss(),
            lambda faults: faults.schedule_outage(UNUSED, 5.0, 1.0),
        ):
            sim, net, transport = make_direct()
            plan(net.faults)
            transport.attach(1, lambda *a: None)
            transport.attach(2, lambda *a: None)
            transport.send(1, 2, "x", 10)
            sim.run()
            assert transport.direct is False and not net.faults.sealed
            assert transport.acks_sent == 1 and net.packets_delivered == 2  # data and ACK

    def test_a_star_that_can_reorder_sequences_the_direct_path(self):
        # 10 ms of jitter on 0.4 ms segments: the second draw (seed 0)
        # is 0.86 ms shorter than the first, so the pair swaps in flight.
        sim, net, transport = make_direct(propagation_jitter=10e-3)
        assert not net.overtaking_free
        got = []
        transport.attach(1, lambda src, payload: got.append(payload))
        transport.attach(2, lambda *a: None)
        arrivals = []
        on_packet = net._handlers[1]
        net._handlers[1] = lambda packet: (arrivals.append(packet.payload[0]), on_packet(packet))
        transport.send(2, 1, "first", 10)
        transport.send(2, 1, "second", 10)
        assert transport.direct == SEQUENCED and net.faults.sealed
        sim.run()
        assert arrivals == [1, 0]  # the network swapped them ...
        assert got == ["first", "second"]  # ... the hold-back put them back
        # each ACK's bytes on the receiver's uplink, none on the sender's downlink
        uplink = net.uplinks[1]
        assert (uplink.bytes_carried, uplink.packets_carried) == (2 * ReliableTransport.ACK_BYTES, 2)
        assert net.downlinks[2].bytes_carried == 0 and net.downlinks[2].busy_until == 0.0
        assert net.packets_delivered == 2
        assert sim.events_processed == 6  # uplink, router and downlink hops per packet
        assert transport._watch is None and not transport._armed and transport.in_flight(2, 1) == 0
        assert (transport.segments_sent, transport.acks_sent) == (2, 2)
        assert (transport.retransmits, transport.rtt_samples, transport.duplicates) == (0, 0, 0)

    def test_a_system_loss_rate_after_the_first_segment_raises(self):
        system = RacSystem(RacConfig.small(), seed=3)
        system.bootstrap(6)
        system.run(0.2)
        assert system.transport.direct is True
        with pytest.raises(SimulationError, match="sealed"):
            system.set_loss_rate(0.01)


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
