"""Property-based tests for the analysis layer and the event engine."""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis.anonymity import (
    receiver_break_grouped,
    sender_break_grouped,
    sender_break_nogroup,
)
from repro.analysis.probability import LogProb, ZERO
from repro.analysis.rings_math import opponent_successors_at_least
from repro.analysis.throughput import (
    dissent_v1_throughput,
    dissent_v2_throughput,
    rac_throughput,
)
from repro.simnet.engine import Simulator

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestLogProbAlgebra:
    @given(probs, probs)
    def test_product_matches_float_multiplication(self, a, b):
        left = (LogProb.from_float(a) * LogProb.from_float(b)).value
        # abs_tol: two subnormal steps — at the bottom of the float range
        # exp(log a + log b) and a * b round to neighbouring subnormals
        # (0.5 * 5e-324 is 0.0 one way and 5e-324 the other).
        assert left == max(0.0, a * b) or math.isclose(left, a * b, rel_tol=1e-9, abs_tol=1e-323)

    @given(probs, probs)
    def test_ordering_matches_floats(self, a, b):
        if a < b:
            assert LogProb.from_float(a) < LogProb.from_float(b)

    @given(st.lists(probs, min_size=1, max_size=50))
    def test_product_never_exceeds_smallest_factor(self, factors):
        p = LogProb.product(factors)
        assert p.value <= min(factors) + 1e-12


class TestAnonymityMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        f1=st.floats(min_value=0.01, max_value=0.95),
        f2=st.floats(min_value=0.01, max_value=0.95),
    )
    def test_sender_break_monotone_in_f(self, f1, f2):
        lo, hi = sorted((f1, f2))
        weak = sender_break_nogroup(10_000, lo, 3)
        strong = sender_break_nogroup(10_000, hi, 3)
        assert weak.log10 <= strong.log10 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(L1=st.integers(min_value=1, max_value=8), L2=st.integers(min_value=1, max_value=8))
    def test_more_relays_strengthen_sender_anonymity(self, L1, L2):
        lo, hi = sorted((L1, L2))
        assert sender_break_nogroup(10_000, 0.2, hi).log10 <= sender_break_nogroup(
            10_000, 0.2, lo
        ).log10 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        G1=st.integers(min_value=50, max_value=2000),
        G2=st.integers(min_value=50, max_value=2000),
    )
    def test_bigger_groups_strengthen_receiver_anonymity(self, G1, G2):
        lo, hi = sorted((G1, G2))
        assert receiver_break_grouped(100_000, hi, 0.3).log10 <= receiver_break_grouped(
            100_000, lo, 0.3
        ).log10 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(f=st.floats(min_value=0.02, max_value=0.4))
    def test_grouped_break_never_beats_nogroup(self, f):
        grouped = sender_break_grouped(100_000, 1000, f, 5)
        nogroup = sender_break_nogroup(100_000, f, 5)
        assert grouped.log10 <= nogroup.log10 + 1e-9


class TestThroughputProperties:
    @settings(max_examples=30)
    @given(n=st.integers(min_value=4, max_value=200_000))
    def test_ordering_beyond_crossover(self, n):
        # At every size, Dissent v1 <= Dissent v2 (v2's whole point).
        assert dissent_v1_throughput(n) <= dissent_v2_throughput(n) * 1.01

    @settings(max_examples=30)
    @given(
        n1=st.integers(min_value=1000, max_value=200_000),
        n2=st.integers(min_value=1000, max_value=200_000),
    )
    def test_rac_flat_in_n(self, n1, n2):
        assert rac_throughput(n1) == rac_throughput(n2)

    @settings(max_examples=30)
    @given(k=st.integers(min_value=0, max_value=7), f=probs)
    def test_tail_probability_decreasing_in_k(self, k, f):
        a = opponent_successors_at_least(7, f, k)
        b = opponent_successors_at_least(7, f, k + 1)
        assert b.value <= a.value + 1e-12


class TestEngineProperties:
    @settings(max_examples=30)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=30)
    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
        horizon=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_run_until_is_exact(self, delays, horizon):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=horizon)
        assert all(d <= horizon for d in fired)
        assert sim.now == horizon or not [d for d in delays if d > horizon]
        sim.run()
        assert len(fired) == len(delays)
