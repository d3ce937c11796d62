"""Property-based tests for the misbehaviour monitors and eviction tracker."""

from hypothesis import given, settings, strategies as st

from repro.core.blacklist import EvictionTracker
from repro.core.messages import group_domain
from repro.core.monitor import PredecessorMonitor, RateMonitor, RelayMonitor

ids = st.integers(min_value=1, max_value=1000)


class TestRelayMonitorProperties:
    @settings(max_examples=50)
    @given(
        layer_ids=st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=8, unique=True),
        observed_prefix=st.integers(min_value=0, max_value=8),
    )
    def test_blame_is_exactly_the_first_gap(self, layer_ids, observed_prefix):
        relays = list(range(100, 100 + len(layer_ids) - 1))
        monitor = RelayMonitor()
        monitor.expect(layer_ids, relays, deadline=10.0)
        prefix = min(observed_prefix, len(layer_ids))
        for msg_id in layer_ids[:prefix]:
            monitor.observe(msg_id)
        verdicts = monitor.collect_expired(11.0)
        if prefix >= len(layer_ids):
            assert verdicts == []
        elif prefix == 0:
            # Even the sender's own layer unobserved: the first relay
            # cannot be blamed for layer 0 (no relay owns it), so the
            # first *attributable* gap is layer 1's relay... layer 0 has
            # relay None, so nothing is blamed.
            assert verdicts == []
        else:
            assert len(verdicts) == 1
            assert verdicts[0].relay == relays[prefix - 1]

    @settings(max_examples=50)
    @given(deadline=st.floats(min_value=0.1, max_value=100.0), when=st.floats(min_value=0.0, max_value=200.0))
    def test_no_verdicts_before_deadline(self, deadline, when):
        monitor = RelayMonitor()
        monitor.expect([1, 2], [7], deadline=deadline)
        verdicts = monitor.collect_expired(when)
        if when < deadline:
            assert verdicts == []


class TestRateMonitorProperties:
    @settings(max_examples=50)
    @given(
        arrivals=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=40),
        window=st.floats(min_value=0.5, max_value=5.0),
        cap=st.integers(min_value=1, max_value=30),
    )
    def test_rate_low_iff_window_empty(self, arrivals, window, cap):
        monitor = RateMonitor(window=window, max_per_window=cap)
        monitor.track(7, now=0.0)
        for t in sorted(arrivals):
            monitor.record(7, t)
        now = 11.0
        verdicts = monitor.check(now)
        in_window = [t for t in arrivals if t >= now - window]
        reasons = {v.reason for v in verdicts}
        if not in_window:
            assert reasons == {"rate-low"}
        elif len(in_window) > cap:
            assert reasons == {"rate-high"}
        else:
            assert verdicts == []


class TestEvictionTrackerProperties:
    @settings(max_examples=50)
    @given(
        accusers=st.lists(ids, min_size=0, max_size=30),
        threshold=st.integers(min_value=1, max_value=10),
    )
    def test_eviction_iff_enough_distinct_followers(self, accusers, threshold):
        tracker = EvictionTracker(
            predecessor_threshold=lambda d: threshold,
            relay_threshold=lambda s: 10**9,
        )
        accused = 5000
        domain = group_domain(1)
        evicted = None
        for accuser in accusers:
            result = tracker.record_predecessor_accusation(accuser, accused, domain, True)
            if result is not None:
                evicted = result
        distinct = len(set(accusers) - {accused})
        if distinct >= threshold:
            assert evicted == accused
        else:
            assert evicted is None

    @settings(max_examples=50)
    @given(
        lists_=st.lists(st.lists(ids, max_size=5).map(tuple), min_size=1, max_size=20),
        threshold=st.integers(min_value=1, max_value=10),
    )
    def test_relay_round_eviction_matches_vote_count(self, lists_, threshold):
        tracker = EvictionTracker(
            predecessor_threshold=lambda d: 10**9,
            relay_threshold=lambda s: threshold,
        )
        evicted = tracker.record_relay_round(len(lists_), lists_)
        votes = {}
        for blacklist in lists_:
            for accused in set(blacklist):
                votes[accused] = votes.get(accused, 0) + 1
        expected = {a for a, count in votes.items() if count >= threshold}
        assert set(evicted) == expected
