"""Unit tests for the three misbehaviour checks."""

import pytest

from repro.core.monitor import PredecessorMonitor, RateMonitor, RelayMonitor
from repro.overlay.broadcast import BroadcastState


class TestRelayMonitor:
    def test_fulfilled_chain_produces_no_suspicion(self):
        monitor = RelayMonitor()
        monitor.expect([10, 11, 12], relays=[7, 8], deadline=5.0)
        for msg_id in (10, 11, 12):
            monitor.observe(msg_id)
        assert monitor.collect_expired(6.0) == []

    def test_first_silent_relay_is_blamed(self):
        monitor = RelayMonitor()
        monitor.expect([10, 11, 12], relays=[7, 8], deadline=5.0)
        monitor.observe(10)  # sender's own broadcast seen
        verdicts = monitor.collect_expired(6.0)
        assert len(verdicts) == 1
        assert verdicts[0].relay == 7 and verdicts[0].msg_id == 11

    def test_later_gaps_not_attributed(self):
        # Relay 7 forwarded; relay 8 did not: only 8 is blamed.
        monitor = RelayMonitor()
        monitor.expect([10, 11, 12], relays=[7, 8], deadline=5.0)
        monitor.observe(10)
        monitor.observe(11)
        verdicts = monitor.collect_expired(6.0)
        assert [v.relay for v in verdicts] == [8]

    def test_nothing_before_deadline(self):
        monitor = RelayMonitor()
        monitor.expect([10, 11], relays=[7], deadline=5.0)
        assert monitor.collect_expired(4.9) == []
        assert len(monitor) == 1

    def test_multiple_onions_tracked_independently(self):
        monitor = RelayMonitor()
        monitor.expect([10, 11], relays=[7], deadline=5.0)
        monitor.expect([20, 21], relays=[9], deadline=5.0)
        monitor.observe(10)
        monitor.observe(20)
        monitor.observe(21)
        verdicts = monitor.collect_expired(6.0)
        assert [(v.relay, v.msg_id) for v in verdicts] == [(7, 11)]

    def test_shared_msg_id_across_onions(self):
        monitor = RelayMonitor()
        a = monitor.expect([10, 11], relays=[7], deadline=5.0)
        b = monitor.expect([10, 12], relays=[8], deadline=5.0)
        monitor.observe(10)
        monitor.observe(11)
        monitor.observe(12)
        assert monitor.collect_expired(6.0) == []
        assert a != b

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RelayMonitor().expect([1, 2, 3], relays=[7], deadline=1.0)


def _ticket(now, order=0, timeout=1.0):
    """The place in line a per-message timer armed at ``now`` would take."""
    return (now + (timeout + 1e-9), order)


class TestPredecessorMonitor:
    def test_deadline_fires_once(self):
        monitor = PredecessorMonitor(timeout=1.0)
        monitor.on_first_seen(100, now=0.0, owed={(1, 0)}, ticket=_ticket(0.0))
        assert monitor.due(0.5) == []
        due = monitor.due(1.5)
        assert due == [(100, {(1, 0)})]
        assert monitor.due(2.0) == []

    def test_expected_set_is_frozen_at_first_sight(self):
        monitor = PredecessorMonitor(timeout=1.0)
        monitor.on_first_seen(100, 0.0, {(1, 0), (2, 1)}, _ticket(0.0))
        # a later topology change shows in later messages' sets only
        monitor.on_first_seen(101, 0.1, {(1, 0), (2, 1), (3, 2)}, _ticket(0.1, 1))
        due = monitor.due(2.0)
        assert due[0][1] == {(1, 0), (2, 1)}

    def test_forget_node_prunes_expectations(self):
        monitor = PredecessorMonitor(timeout=1.0)
        monitor.on_first_seen(100, 0.0, {(1, 0), (2, 1)}, _ticket(0.0))
        monitor.forget_node(1)
        assert monitor.due(2.0)[0][1] == {(2, 1)}

    def test_missing_delegates_to_state(self):
        state = BroadcastState()
        state.on_receive(100, (1, 0), 0.0)
        state.on_receive(100, (1, 0), 0.1)
        expected = {(1, 0), (2, 1)}
        assert PredecessorMonitor.missing(state, 100, expected) == {(2, 1)}
        assert state.copies_from(100, (1, 0)) == 2

    def test_arriving_copies_settle_the_deadline(self):
        monitor = PredecessorMonitor(timeout=1.0)
        monitor.on_first_seen(100, 0.0, {(1, 0), (2, 1)}, _ticket(0.0))
        monitor.on_copy(100, (1, 0))
        monitor.on_copy(100, (1, 0))  # a replayed copy settles nothing more
        monitor.on_copy(100, (9, 2))  # nor does a pair that owed nothing
        assert (len(monitor), monitor.unsettled()) == (1, 1)
        monitor.on_copy(100, (2, 1))
        assert (len(monitor), monitor.unsettled()) == (0, 0)
        assert monitor.due(2.0) == []

    def test_a_message_that_owes_nothing_holds_no_deadline(self):
        monitor = PredecessorMonitor(timeout=1.0)
        assert monitor.on_first_seen(100, 0.0, set(), _ticket(0.0)) is None
        assert (len(monitor), monitor.unsettled()) == (0, 0)

    def test_forgetting_the_last_debtor_settles(self):
        monitor = PredecessorMonitor(timeout=1.0)
        monitor.on_first_seen(100, 0.0, {(1, 0), (1, 2)}, _ticket(0.0))
        monitor.on_first_seen(101, 0.2, {(1, 0), (2, 1)}, _ticket(0.2, 1))
        monitor.forget_node(1)
        assert (len(monitor), monitor.unsettled()) == (1, 1)
        assert monitor.due(2.0) == [(101, {(2, 1)})]

    def test_one_timer_follows_the_oldest_unsettled_deadline(self):
        monitor = PredecessorMonitor(timeout=1.0)
        first, second, third = _ticket(0.0), _ticket(0.25, 1), _ticket(0.5, 2)
        assert monitor.on_first_seen(100, 0.0, {(1, 0)}, first) == first
        # a timer is armed: later first sights ask for none
        assert monitor.on_first_seen(101, 0.25, {(1, 0)}, second) is None
        assert monitor.on_first_seen(102, 0.5, {(1, 0)}, third) is None
        monitor.on_copy(100, (1, 0))
        monitor.on_copy(101, (1, 0))
        # the armed timer finds its message settled and moves on
        assert monitor.due(first[0]) == []
        assert monitor.next_ticket() == third
        assert monitor.due(third[0]) == [(102, {(1, 0)})]
        assert monitor.next_ticket() is None
        # nothing armed any more: the next debtor arms again
        fourth = _ticket(2.0, 3)
        assert monitor.on_first_seen(103, 2.0, {(1, 0)}, fourth) == fourth

    def test_first_sights_a_hair_apart_share_the_earliest_timer(self):
        # A per-message timer fires 1e-9 s after its own deadline, late
        # enough to reach the deadline of a message seen at the same
        # instant: that verdict belongs to the earlier timer's ticket,
        # even when the earlier message itself owes nothing.
        monitor = PredecessorMonitor(timeout=1.0)
        early, late = _ticket(0.25, 0), _ticket(0.25, 1)
        assert monitor.on_first_seen(100, 0.25, set(), early) is None
        assert monitor.on_first_seen(101, 0.25, {(1, 0)}, late) == early
        assert monitor.due(early[0]) == [(101, {(1, 0)})]


class TestRateMonitor:
    def test_silent_predecessor_is_rate_low(self):
        monitor = RateMonitor(window=1.0, max_per_window=10)
        monitor.track(7, now=0.0)
        verdicts = monitor.check(now=1.5)
        assert [(v.predecessor, v.reason) for v in verdicts] == [(7, "rate-low")]

    def test_active_predecessor_is_fine(self):
        monitor = RateMonitor(window=1.0, max_per_window=10)
        monitor.track(7, now=0.0)
        monitor.record(7, now=1.2)
        assert monitor.check(now=1.5) == []

    def test_flooding_predecessor_is_rate_high(self):
        monitor = RateMonitor(window=1.0, max_per_window=3)
        monitor.track(7, now=0.0)
        for i in range(5):
            monitor.record(7, now=1.0 + i * 0.01)
        verdicts = monitor.check(now=1.1)
        assert verdicts and verdicts[0].reason == "rate-high"

    def test_dynamic_cap_overrides_default(self):
        monitor = RateMonitor(window=1.0, max_per_window=3)
        monitor.track(7, now=0.0)
        for i in range(5):
            monitor.record(7, now=1.0 + i * 0.01)
        assert monitor.check(now=1.1, max_per_window=100) == []

    def test_grace_period_for_new_predecessors(self):
        monitor = RateMonitor(window=1.0, max_per_window=10)
        monitor.track(7, now=5.0)
        assert monitor.check(now=5.5) == []  # observed < one window

    def test_window_slides(self):
        monitor = RateMonitor(window=1.0, max_per_window=2)
        monitor.track(7, now=0.0)
        monitor.record(7, now=0.1)
        monitor.record(7, now=0.2)
        monitor.record(7, now=2.0)  # old arrivals expired by now
        assert monitor.check(now=2.1) == []

    def test_untrack_stops_judging(self):
        monitor = RateMonitor(window=1.0, max_per_window=10)
        monitor.track(7, now=0.0)
        monitor.untrack(7)
        assert monitor.check(now=5.0) == []

    def test_record_auto_tracks(self):
        monitor = RateMonitor(window=1.0, max_per_window=10)
        monitor.record(9, now=0.0)
        assert 9 in monitor.tracked()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            RateMonitor(window=0.0, max_per_window=1)
