"""Unit tests for membership views and broadcast receipt state."""

import pytest

from repro.crypto.keys import KeyPair
from repro.overlay.broadcast import BroadcastState
from repro.overlay.membership import MembershipView


class TestMembershipView:
    def test_add_with_key(self):
        view = MembershipView(num_rings=2)
        key = KeyPair.generate("sim", seed=1).public
        view.add(10, key)
        assert 10 in view
        assert view.id_key(10) is key

    def test_add_is_idempotent(self):
        view = MembershipView(num_rings=2)
        view.add(10)
        view.add(10)  # repeated JOIN broadcast
        assert len(view) == 1

    def test_late_key_registration(self):
        view = MembershipView(num_rings=2)
        view.add(10)
        assert view.id_key(10) is None
        key = KeyPair.generate("sim", seed=1).public
        view.add(10, key)
        assert view.id_key(10) is key

    def test_nodes_with_keys_excludes_keyless(self):
        view = MembershipView(num_rings=2)
        view.add(1, KeyPair.generate("sim", seed=1).public)
        view.add(2)
        assert view.nodes_with_keys() == [1] or view.nodes_with_keys() == [1]

    def test_remove_is_idempotent(self):
        view = MembershipView(num_rings=2)
        view.add(1)
        view.remove(1)
        view.remove(1)
        assert len(view) == 0

    def test_neighbour_shortcuts_match_topology(self):
        view = MembershipView(num_rings=3, members=range(8))
        assert view.successors(0) == view.topology.successors(0)


class TestBroadcastState:
    def test_first_copy_is_new(self):
        state = BroadcastState()
        assert state.on_receive(100, (1, 0), now=0.0)
        assert not state.on_receive(100, (2, 0), now=0.1)

    def test_self_origination(self):
        state = BroadcastState()
        assert state.on_receive(100, None, now=0.0)
        assert 100 in state

    def test_copies_counted_per_predecessor_and_ring(self):
        state = BroadcastState()
        state.on_receive(100, (1, 0), 0.0)
        state.on_receive(100, (1, 1), 0.1)
        state.on_receive(100, (1, 1), 0.2)
        assert state.copies_from(100, (1, 0)) == 1
        assert state.copies_from(100, (1, 1)) == 2

    def test_missing_predecessors(self):
        state = BroadcastState()
        state.on_receive(100, (1, 0), 0.0)
        expected = {(1, 0), (2, 1), (3, 2)}
        assert state.missing_predecessors(100, expected) == {(2, 1), (3, 2)}

    def test_missing_for_unknown_message_is_everyone(self):
        state = BroadcastState()
        expected = {(1, 0)}
        assert state.missing_predecessors(999, expected) == expected

    def test_replay_detection_is_per_ring(self):
        state = BroadcastState()
        state.on_receive(100, (1, 0), 0.0)
        state.on_receive(100, (1, 1), 0.1)  # second ring: legitimate
        assert state.copies_from(100, (1, 0)) == state.copies_from(100, (1, 1)) == 1
        state.on_receive(100, (1, 0), 0.2)  # same ring twice: replay
        assert state.copies_from(100, (1, 0)) == 2
        assert state.copies_from(100, (1, 1)) == 1

    def test_garbage_collection(self):
        state = BroadcastState()
        state.on_receive(1, None, 0.0)
        state.on_receive(2, None, 5.0)
        dropped = state.forget_before(1.0)
        assert dropped == 1
        assert 1 not in state and 2 in state

    def test_first_copy_time_is_kept(self):
        state = BroadcastState()
        state.on_receive(1, (9, 0), 3.5)
        state.on_receive(1, (9, 1), 9.0)  # a later copy keeps the first time
        assert state.copies_from(2, (9, 0)) == 0
        assert state.forget_before(3.5) == 0
        assert state.forget_before(3.6) == 1
        assert 1 not in state
