"""Model-based property test for the one-tuple receipt.

``BroadcastState`` keeps each message as one tuple, the first-copy time
followed by the key of every copy in arrival order. It must answer
every query exactly as the layout it replaced, kept here as the
reference: a record object per message holding the first-copy time and
a dict counting copies per (predecessor, ring) key.

Both are driven through one random sequence of receipts and
collections. Keys come from a small pool, so copies repeat, ``None``
(a self-originated first copy) mixes with real keys, and one ring's
predecessor changes part-way (``(1, 0)`` then ``(4, 0)``). Times may
repeat and run backwards, so ``forget_before`` is checked on
non-monotone first-seen times too.
"""

from hypothesis import given, settings, strategies as st

from repro.overlay.broadcast import FIRST_COPY, LATER_COPY, REPLAYED_COPY, BroadcastState

MSG_IDS = [11, 12, 13, 14]
KEYS = [None, (1, 0), (4, 0), (2, 1), (1, 2)]


class ReferenceRecord:
    __slots__ = ("first_seen_at", "copies_from")

    def __init__(self, first_seen_at):
        self.first_seen_at = first_seen_at
        self.copies_from = {}


class ReferenceState:
    """Receipts as a record object with a dict of copies per message."""

    def __init__(self):
        self.records = {}

    def __len__(self):
        return len(self.records)

    def __contains__(self, msg_id):
        return msg_id in self.records

    def on_receive(self, msg_id, from_key, now):
        record = self.records.get(msg_id)
        is_new = record is None
        if record is None:
            record = self.records[msg_id] = ReferenceRecord(now)
        copies = 0
        if from_key is not None:
            copies = record.copies_from[from_key] = record.copies_from.get(from_key, 0) + 1
        if is_new:
            return FIRST_COPY
        return REPLAYED_COPY if copies > 1 else LATER_COPY

    def copies_from(self, msg_id, from_key):
        record = self.records.get(msg_id)
        return record.copies_from.get(from_key, 0) if record else 0

    def missing_predecessors(self, msg_id, expected):
        record = self.records.get(msg_id)
        if record is None:
            return set(expected)
        return {key for key in expected if record.copies_from.get(key, 0) == 0}

    def forget_before(self, horizon):
        stale = [m for m, rec in self.records.items() if rec.first_seen_at < horizon]
        for msg_id in stale:
            del self.records[msg_id]
        return len(stale)


receive = st.tuples(
    st.just("receive"),
    st.sampled_from(MSG_IDS),
    st.sampled_from(KEYS),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
)
forget = st.tuples(st.just("forget"), st.sampled_from([0.0, 0.75, 1.0, 1.75, 3.0]))
expected_sets = st.sets(st.sampled_from(KEYS[1:]))


def answers(state, expected):
    """Every query the node makes, over every message and key."""
    return (
        len(state),
        [msg_id in state for msg_id in MSG_IDS],
        [state.copies_from(msg_id, key) for msg_id in MSG_IDS for key in KEYS[1:]],
        [list(state.missing_predecessors(msg_id, expected)) for msg_id in MSG_IDS],
    )


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.one_of(receive, receive, forget), max_size=40), expected=expected_sets)
def test_every_answer_matches_the_record_and_dict_layout(ops, expected):
    state, reference = BroadcastState(), ReferenceState()
    for op in ops:
        if op[0] == "receive":
            _, msg_id, key, now = op
            assert state.on_receive(msg_id, key, now) == reference.on_receive(msg_id, key, now)
        else:
            assert state.forget_before(op[1]) == reference.forget_before(op[1])
        assert answers(state, expected) == answers(reference, expected)


def test_a_copy_key_is_counted_by_value_not_identity():
    state = BroadcastState()
    state.on_receive(7, (1, 0), 0.0)
    state.on_receive(7, tuple([1, 0]), 0.1)
    assert state.copies_from(7, (1, 0)) == 2
    assert state.missing_predecessors(7, {(1, 0), (2, 1)}) == {(2, 1)}
