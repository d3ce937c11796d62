"""Model-based property test for the settle-on-arrival predecessor check.

The owed-set monitor is behaviour-preserving by contract: the same
``(msg_id, missing pairs)`` verdicts, at the same deadlines, in the same
order, as the implementation it replaced — kept here as the reference.
That one froze the expected set at first sight, armed one timer per
message and asked ``BroadcastState.missing_predecessors`` when the timer
fired; a timer that found nothing missing was still an event.

Both sides are driven through the glue ``RacNode`` puts around them
(first sight, later copies, eviction, timer), restated in a few lines,
over one sequence of random operations. Clock steps include zero and
fractions of the 1e-9 s by which a timer trails its own deadline, so
first sights land on and between each other's firing times.
"""

import heapq

from hypothesis import example, given, settings, strategies as st

from repro.core.monitor import PredecessorMonitor
from repro.overlay.broadcast import BroadcastState

TIMEOUT = 1.0
#: What a per-message timer is armed with (node.py: ``timeout + 1e-9``).
TIMER_DELAY = TIMEOUT + 1e-9

#: The (predecessor, ring) pairs a three-ring node can be owed copies
#: by; node 1 precedes it on two rings. The last pair never owes.
PAIRS = [(1, 0), (2, 1), (1, 2), (3, 1)]


class ReferenceMonitor:
    """Check 2 as it was before it settled on arrival."""

    def __init__(self, timeout):
        self.timeout = timeout
        self.deadlines = []  # heap of (deadline, arm order, msg_id)
        self.armed = 0
        self.expected = {}
        self.checked = set()

    def on_first_seen(self, msg_id, now, expected):
        heapq.heappush(self.deadlines, (now + self.timeout, self.armed, msg_id))
        self.armed += 1
        self.expected[msg_id] = set(expected)

    def forget_node(self, node_id):
        for expected in self.expected.values():
            expected -= {key for key in expected if key[0] == node_id}

    def due(self, now):
        ready = []
        while self.deadlines and self.deadlines[0][0] <= now:
            msg_id = heapq.heappop(self.deadlines)[2]
            if msg_id not in self.checked:
                ready.append((msg_id, self.expected.pop(msg_id, set())))
                self.checked.add(msg_id)
        return ready


class _Side:
    """One node's worth of glue: a clock, a ticket counter, receipt
    records, armed timers and the log of verdicts."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.state = BroadcastState()
        self.timers = []  # heap of tickets
        self.fires = 0
        self.verdicts = []  # (ticket it fired at, msg_id, missing pairs in accusation order)

    def reserve(self):
        ticket = (self.now + TIMER_DELAY, self.seq)
        self.seq += 1
        return ticket

    def expected_pairs(self, mask):
        expected = set()
        for ring, pair in enumerate(PAIRS[:3]):
            if mask >> ring & 1:
                expected.add(pair)
        return expected

    def advance(self, delay):
        horizon = self.now + delay
        while self.timers and self.timers[0][0] <= horizon:
            ticket = heapq.heappop(self.timers)
            self.now = ticket[0]
            self.fires += 1
            self.fire(ticket)
        self.now = horizon

    def judge(self, ticket, due):
        for msg_id, pairs in due:
            missing = list(PredecessorMonitor.missing(self.state, msg_id, pairs))
            if missing:
                self.verdicts.append((ticket, msg_id, missing))


class ReferenceSide(_Side):
    def __init__(self):
        super().__init__()
        self.monitor = ReferenceMonitor(TIMEOUT)

    def see(self, msg_id, mask, from_key):
        self.state.on_receive(msg_id, from_key, self.now)
        self.monitor.on_first_seen(msg_id, self.now, self.expected_pairs(mask))
        heapq.heappush(self.timers, self.reserve())

    def copy(self, msg_id, from_key):
        self.state.on_receive(msg_id, from_key, self.now)

    def fire(self, ticket):
        self.judge(ticket, self.monitor.due(self.now))


class OwedSetSide(_Side):
    def __init__(self):
        super().__init__()
        self.monitor = PredecessorMonitor(TIMEOUT)

    def arm(self, ticket):
        if ticket is not None:
            assert not self.timers, "a second timer for one monitor"
            assert ticket[0] >= self.now
            heapq.heappush(self.timers, ticket)

    def see(self, msg_id, mask, from_key):
        self.state.on_receive(msg_id, from_key, self.now)
        owed = self.expected_pairs(mask)
        owed.discard(from_key)
        self.arm(self.monitor.on_first_seen(msg_id, self.now, owed, self.reserve()))

    def copy(self, msg_id, from_key):
        self.state.on_receive(msg_id, from_key, self.now)
        self.monitor.on_copy(msg_id, from_key)

    def fire(self, ticket):
        self.judge(ticket, self.monitor.due(self.now))
        self.arm(self.monitor.next_ticket())


steps = st.sampled_from([0.0, 2.5e-10, 5e-10, 1e-9, 0.25, 0.5, TIMEOUT, TIMER_DELAY])
operations = st.lists(
    st.one_of(
        # first sight: which rings' predecessors are past their grace,
        # and whose copy it is (None: the node originated it)
        st.tuples(st.just("see"), st.integers(0, 7), st.sampled_from([None] + PAIRS)),
        # a further copy of any message seen so far, judged ones too
        st.tuples(st.just("copy"), st.integers(0, 10**6), st.sampled_from(PAIRS)),
        # every predecessor's copy of one message, as on an honest ring
        st.tuples(st.just("copies"), st.integers(0, 10**6)),
        st.tuples(st.just("forget"), st.sampled_from([1, 2, 3])),
        st.tuples(st.just("advance"), steps),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(ops=operations)
@example(
    # two first sights at one instant; the earlier one settles, the
    # later one's verdict still lands on the earlier one's ticket
    ops=[("see", 7, (1, 0)), ("see", 7, (1, 0)), ("copies", 0), ("advance", TIMER_DELAY)]
)
@example(
    # ... and a hair apart: the second deadline lies between the two timers
    ops=[("see", 0, None), ("advance", 5e-10), ("see", 7, None), ("advance", 2.5e-10),
         ("see", 7, None), ("advance", TIMER_DELAY)]
)
@example(
    # an eviction settles the oldest debt while the timer is armed for it
    ops=[("see", 1, None), ("advance", 0.25), ("see", 2, None), ("forget", 1),
         ("advance", TIMER_DELAY), ("see", 7, (2, 1)), ("advance", TIMER_DELAY)]
)
def test_owed_set_monitor_matches_per_message_timers(ops):
    reference, owed = ReferenceSide(), OwedSetSide()
    seen = 0
    for op in ops:
        kind = op[0]
        for side in (reference, owed):
            if kind == "see":
                side.see(seen, op[1], op[2])
            elif kind == "copy" and seen:
                side.copy(op[1] % seen, op[2])
            elif kind == "copies" and seen:
                for pair in PAIRS[:3]:
                    side.copy(op[1] % seen, pair)
            elif kind == "forget":
                side.monitor.forget_node(op[1])
            elif kind == "advance":
                side.advance(op[1])
        if kind == "see":
            seen += 1
        assert owed.verdicts == reference.verdicts
        assert owed.now == reference.now
        # every unsettled message is in the FIFO, and its head is one
        assert (len(owed.monitor) == 0) == (owed.monitor.unsettled() == 0)
        assert len(owed.monitor) <= len(reference.monitor.deadlines)

    for side in (reference, owed):
        side.advance(2 * TIMER_DELAY)
    assert owed.verdicts == reference.verdicts
    assert owed.fires <= reference.fires
    assert (len(owed.monitor), owed.monitor.unsettled(), owed.timers) == (0, 0, [])
