"""Unit tests for blacklists and the eviction tracker."""

import pytest

from repro.core.blacklist import Blacklist, EvictionTracker
from repro.core.config import RacConfig
from repro.core.messages import group_domain


class TestBlacklist:
    def test_add_and_contains(self):
        blacklist = Blacklist()
        assert blacklist.add(7, "silent-relay", now=1.0)
        assert 7 in blacklist
        assert blacklist.entry(7).reason == "silent-relay"

    def test_second_add_is_noop(self):
        blacklist = Blacklist()
        blacklist.add(7, "a", 1.0)
        assert not blacklist.add(7, "b", 2.0)
        assert blacklist.entry(7).reason == "a"

    def test_members_sorted(self):
        blacklist = Blacklist()
        blacklist.add(9, "x", 0.0)
        blacklist.add(3, "x", 0.0)
        assert blacklist.members() == (3, 9)

    def test_discard(self):
        blacklist = Blacklist()
        blacklist.add(7, "x", 0.0)
        blacklist.discard(7)
        assert 7 not in blacklist and len(blacklist) == 0


def make_tracker(pred_threshold=2, relay_threshold=3):
    return EvictionTracker(
        predecessor_threshold=lambda domain: pred_threshold,
        relay_threshold=lambda size: relay_threshold,
    )


DOMAIN = group_domain(1)


class TestPredecessorEvidence:
    def test_threshold_crossing_evicts(self):
        tracker = make_tracker(pred_threshold=2)
        assert tracker.record_predecessor_accusation(10, 99, DOMAIN, True) is None
        assert tracker.record_predecessor_accusation(11, 99, DOMAIN, True) == 99
        assert 99 in tracker.evicted

    def test_non_followers_ignored(self):
        tracker = make_tracker(pred_threshold=1)
        assert tracker.record_predecessor_accusation(10, 99, DOMAIN, False) is None
        assert 99 not in tracker.evicted

    def test_duplicate_accusers_count_once(self):
        tracker = make_tracker(pred_threshold=2)
        tracker.record_predecessor_accusation(10, 99, DOMAIN, True)
        assert tracker.record_predecessor_accusation(10, 99, DOMAIN, True) is None
        assert tracker.predecessor_accuser_count(99, DOMAIN) == 1

    def test_self_accusation_ignored(self):
        tracker = make_tracker(pred_threshold=1)
        assert tracker.record_predecessor_accusation(99, 99, DOMAIN, True) is None

    def test_domains_tally_separately(self):
        tracker = make_tracker(pred_threshold=2)
        other = group_domain(2)
        tracker.record_predecessor_accusation(10, 99, DOMAIN, True)
        assert tracker.record_predecessor_accusation(11, 99, other, True) is None
        assert tracker.predecessor_accuser_count(99, DOMAIN) == 1
        assert tracker.predecessor_accuser_count(99, other) == 1

    def test_already_evicted_ignored(self):
        tracker = make_tracker(pred_threshold=1)
        tracker.record_predecessor_accusation(10, 99, DOMAIN, True)
        assert tracker.record_predecessor_accusation(11, 99, DOMAIN, True) is None


class TestRelayEvidence:
    def test_round_counting(self):
        tracker = make_tracker(relay_threshold=3)
        lists = [(99,), (99,), (), (5,)]
        assert tracker.record_relay_round(4, lists) == []

    def test_threshold_crossing_evicts(self):
        tracker = make_tracker(relay_threshold=3)
        lists = [(99,), (99,), (99, 5), ()]
        assert tracker.record_relay_round(4, lists) == [99]
        assert 99 in tracker.evicted

    def test_duplicates_within_one_list_count_once(self):
        tracker = make_tracker(relay_threshold=2)
        lists = [(99, 99, 99), ()]
        assert tracker.record_relay_round(2, lists) == []
        assert 99 not in tracker.evicted

    def test_votes_do_not_accumulate_across_rounds(self):
        # The paper requires f*G+1 *distinct* accusers; counting the
        # same accuser's list round after round would let one opponent
        # evict anyone eventually.
        tracker = make_tracker(relay_threshold=2)
        for _ in range(5):
            tracker.record_relay_round(3, [(99,), (), ()])
        assert 99 not in tracker.evicted

    def test_exact_quorum_boundary(self):
        # Pin the f*G arithmetic against the real config: with G=12 and
        # f=0.25 the quorum is floor(0.25*12)+1 = 4, so exactly
        # floor(f*G) = 3 lists — a full-strength colluding coalition —
        # must NOT evict, and one more honest list must.
        config = RacConfig.small(assumed_opponent_fraction=0.25)
        threshold = config.relay_accusation_threshold(12)
        assert threshold == 4
        tracker = EvictionTracker(
            predecessor_threshold=lambda domain: 99,
            relay_threshold=config.relay_accusation_threshold,
        )
        at_bound = [(99,)] * (threshold - 1) + [()] * 9
        assert tracker.record_relay_round(12, at_bound) == []
        assert 99 not in tracker.evicted
        over_bound = [(99,)] * threshold + [()] * 8
        assert tracker.record_relay_round(12, over_bound) == [99]

    def test_identical_lists_from_distinct_contributors_each_count(self):
        # Lists are anonymous: the tracker cannot tell two members with
        # identical grievances apart, so each list counts. The
        # exactly-one-contribution-per-member invariant is the shuffle
        # layer's job (RacSystem._run_group_shuffle collects one
        # contribution per active member), which is what makes
        # list-count == distinct-accuser-count.
        tracker = make_tracker(relay_threshold=2)
        assert tracker.record_relay_round(3, [(99,), (99,), ()]) == [99]

    def test_eviction_stable_across_repeated_identical_rounds(self):
        # Replaying the same winning round must neither re-evict nor
        # flip any state: `evicted` is monotone.
        tracker = make_tracker(relay_threshold=2)
        lists = [(99,), (99, 5), ()]
        assert tracker.record_relay_round(3, lists) == [99]
        for _ in range(3):
            assert tracker.record_relay_round(3, lists) == []
        assert tracker.evicted == {99}

    def test_forget_clears_evidence(self):
        tracker = make_tracker(pred_threshold=3)
        tracker.record_predecessor_accusation(10, 99, DOMAIN, True)
        tracker.forget(99)
        assert tracker.predecessor_accuser_count(99, DOMAIN) == 0
