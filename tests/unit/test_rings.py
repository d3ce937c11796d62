"""Unit tests for the multi-ring topology."""

import pytest

from repro.overlay.rings import RingTopology


class TestMembership:
    def test_starts_with_given_members(self):
        topo = RingTopology([1, 2, 3], num_rings=3)
        assert topo.members == {1, 2, 3}
        assert len(topo) == 3

    def test_add_and_remove(self):
        topo = RingTopology([1], num_rings=2)
        topo.add_node(2)
        assert 2 in topo
        topo.remove_node(2)
        assert 2 not in topo

    def test_double_add_rejected(self):
        topo = RingTopology([1], num_rings=2)
        with pytest.raises(ValueError):
            topo.add_node(1)

    def test_remove_unknown_rejected(self):
        topo = RingTopology([1], num_rings=2)
        with pytest.raises(ValueError):
            topo.remove_node(9)

    def test_zero_rings_rejected(self):
        with pytest.raises(ValueError):
            RingTopology([], num_rings=0)


class TestNeighbours:
    def test_successor_and_predecessor_are_inverse(self):
        topo = RingTopology(range(10), num_rings=4)
        for node in range(10):
            for ring in range(4):
                succ = topo.successor(node, ring)
                assert topo.predecessor(succ, ring) == node

    def test_singleton_has_no_neighbours(self):
        topo = RingTopology([7], num_rings=3)
        assert topo.successor(7, 0) is None
        assert topo.predecessor(7, 0) is None

    def test_pair_are_mutual_neighbours(self):
        topo = RingTopology([1, 2], num_rings=1)
        assert topo.successor(1, 0) == 2
        assert topo.successor(2, 0) == 1

    def test_ring_walk_visits_every_member_once(self):
        members = list(range(20))
        topo = RingTopology(members, num_rings=2)
        for ring in range(2):
            seen = [0]
            while True:
                nxt = topo.successor(seen[-1], ring)
                if nxt == 0:
                    break
                seen.append(nxt)
            assert sorted(seen) == members

    def test_rings_are_differently_ordered(self):
        # With 32 members and 128-bit hash positions, two identically
        # ordered rings are (astronomically) unlikely.
        topo = RingTopology(range(32), num_rings=2)
        assert topo.ring_order(0) != topo.ring_order(1)

    def test_unknown_node_query_rejected(self):
        topo = RingTopology([1, 2], num_rings=1)
        with pytest.raises(ValueError):
            topo.successor(9, 0)

    def test_out_of_range_ring_rejected(self):
        topo = RingTopology([1, 2], num_rings=1)
        with pytest.raises(ValueError):
            topo.successor(1, 1)
        with pytest.raises(ValueError):
            topo.ring_order(5)


class TestNeighbourSets:
    def test_successors_has_one_entry_per_ring(self):
        topo = RingTopology(range(10), num_rings=5)
        assert len(topo.successors(3)) == 5

    def test_follows_is_a_successor_and_outlives_its_removal(self):
        members = list(range(12))
        topo = RingTopology(members, 3)
        for accused in members:
            for accuser in members:
                if accuser != accused:
                    assert topo.follows(accuser, accused) == (accuser in topo.successor_set(accused))
        # Removing members only makes more accusers follow, the accuser
        # itself included; a node off the rings has no followers.
        before = {(a, x) for a in members for x in members if a != x and topo.follows(a, x)}
        for gone in (3, 7, 8):
            topo.remove_node(gone)
        after = {(a, x) for a in members for x in members if a != x and topo.follows(a, x)}
        assert {(a, x) for a, x in before if x not in (3, 7, 8)} <= after
        assert not {x for _a, x in after} & {3, 7, 8}
        survivors = RingTopology([m for m in members if m not in (3, 7, 8)], 3)
        assert {(a, x) for a, x in after if a not in (3, 7, 8)} == {
            (a, x) for a in survivors.members for x in survivors.members if a != x and a in survivors.successor_set(x)
        }

    def test_successor_set_deduplicates(self):
        topo = RingTopology([1, 2], num_rings=4)
        assert topo.successors(1) == [2, 2, 2, 2]
        assert topo.successor_set(1) == {2}

    def test_determinism_across_instances(self):
        a = RingTopology(range(50), num_rings=3)
        b = RingTopology(reversed(range(50)), num_rings=3)
        for node in range(50):
            assert a.successors(node) == b.successors(node)

    def test_removal_relinks_the_ring(self):
        topo = RingTopology(range(5), num_rings=1)
        victim = topo.successor(0, 0)
        after_victim = topo.successor(victim, 0)
        topo.remove_node(victim)
        assert topo.successor(0, 0) == after_victim


class TestPredecessorKeys:
    def test_key_names_the_predecessor_and_ring(self):
        topo = RingTopology(range(8), num_rings=3)
        for node in range(8):
            for ring in range(3):
                assert topo.predecessor_key(node, ring) == (topo.predecessor(node, ring), ring)

    def test_one_tuple_per_edge(self):
        topo = RingTopology(range(8), num_rings=3)
        assert topo.predecessor_key(0, 1) is topo.predecessor_key(0, 1)

    def test_keys_follow_joins_and_removals(self):
        topo = RingTopology([], num_rings=2)
        topo.add_node(1)
        assert topo.predecessor_key(1, 0) is None
        for node in range(2, 12):
            topo.add_node(node)
        for node in range(1, 12, 3):
            topo.remove_node(node)
        fresh = RingTopology(topo.members, num_rings=2)
        for node in topo.members:
            for ring in range(2):
                assert topo.predecessor_key(node, ring) == fresh.predecessor_key(node, ring)
        while len(topo) > 1:
            topo.remove_node(min(topo.members))
        (last,) = topo.members
        assert topo.predecessor_key(last, 0) is None and topo.predecessor(last, 1) is None

    def test_key_query_rejects_what_predecessor_rejects(self):
        topo = RingTopology(range(4), num_rings=2)
        with pytest.raises(ValueError):
            topo.predecessor_key(99, 0)
        with pytest.raises(ValueError):
            topo.predecessor_key(0, 5)
