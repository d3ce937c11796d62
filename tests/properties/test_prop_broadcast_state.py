"""Model-based property test for the bitmask receipt.

``BroadcastState`` keeps each message as one int, a bitmask over the
(predecessor, ring) keys that delivered a copy, with the first-copy
times in one array and replays listed beside the masks. It must answer
every query exactly as the first layout, kept here as the reference: a
record object per message holding the first-copy time and a dict
counting copies per (predecessor, ring) key.

Both are driven through one random sequence of receipts and
collections. Keys come from a small pool, so copies repeat, ``None``
(a self-originated first copy) mixes with real keys, and one ring's
predecessor changes part-way (``(1, 0)`` then ``(4, 0)``). Times may
repeat and run backwards, so ``forget_before`` is checked on
non-monotone first-seen times too. Two more properties draw from a pool
of a dozen keys, so masks outgrow CPython's small-int cache, and from
times that never run backwards, where ``forget_before`` drops only
the stale prefix.
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


def answers(state, expected, keys=KEYS):
    """Every query the node makes, over every message and key."""
    return (
        len(state),
        [msg_id in state for msg_id in MSG_IDS],
        [state.copies_from(msg_id, key) for msg_id in MSG_IDS for key in keys[1:]],
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


#: Twelve ring edges: bit 11 is 2048, past the cached small ints.
WIDE_KEYS = [None] + [(node, node % 3) for node in range(1, 13)]
wide_receive = st.tuples(
    st.just("receive"),
    st.sampled_from(MSG_IDS),
    st.sampled_from(WIDE_KEYS),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(st.one_of(wide_receive, wide_receive, forget), max_size=60),
    expected=st.sets(st.sampled_from(WIDE_KEYS[1:])),
)
def test_masks_past_the_small_int_cache_answer_like_the_reference(ops, expected):
    state, reference = BroadcastState(), ReferenceState()
    for op in ops:
        if op[0] == "receive":
            _, msg_id, key, now = op
            assert state.on_receive(msg_id, key, now) == reference.on_receive(msg_id, key, now)
        else:
            assert state.forget_before(op[1]) == reference.forget_before(op[1])
        assert answers(state, expected, WIDE_KEYS) == answers(reference, expected, WIDE_KEYS)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(MSG_IDS), st.sampled_from(KEYS), st.sampled_from([0.0, 0.25, 0.5]),
                  st.sampled_from([None, 0.0, 0.5, 1.0])),
        max_size=40,
    ),
)
def test_in_order_times_forget_only_the_stale_prefix(steps):
    # Each step advances the clock, receives one copy, then maybe
    # collects behind a horizon some lag before now.
    state, reference, now = BroadcastState(), ReferenceState(), 0.0
    for msg_id, key, advance, lag in steps:
        now += advance
        assert state.on_receive(msg_id, key, now) == reference.on_receive(msg_id, key, now)
        if lag is not None:
            assert state.forget_before(now - lag) == reference.forget_before(now - lag)
        # the kept records, and their first-copy times, stay in arrival order
        assert list(state._records) == list(reference.records)
        assert list(state._seen_at) == [rec.first_seen_at for rec in reference.records.values()]
        assert answers(state, set(KEYS[1:])) == answers(reference, set(KEYS[1:]))


def test_a_copy_key_is_counted_by_value_not_identity():
    state = BroadcastState()
    state.on_receive(7, (1, 0), 0.0)
    state.on_receive(7, tuple([1, 0]), 0.1)
    assert state.copies_from(7, (1, 0)) == 2
    assert state.missing_predecessors(7, {(1, 0), (2, 1)}) == {(2, 1)}
