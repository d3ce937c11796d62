"""Model-based property tests for the calendar and the fault injector.

Both rewrites in this layer were behaviour-preserving by contract — the
engine fires the same events in the same ``(time, seq)`` order, the
injector returns the same verdicts and draws the same random numbers —
so each is checked against the plain implementation it replaced, kept
here as the reference: a sorted list for the calendar, the scan over
every scheduled window for the injector.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.snapshot import restore_system, snapshot_system

# ---------------------------------------------------------------------------
# the calendar
# ---------------------------------------------------------------------------
_COMPACT_MIN_QUEUE = 64  # the engine's compaction floor, restated


class _Fired:
    """Picklable callback: appends its label to a log the simulator
    carries, so a restored copy keeps logging into its own restored log
    (asserted at the end)."""

    def __init__(self, log, label):
        self.log = log
        self.label = label

    def __call__(self):
        self.log.append(self.label)


class _Spawner(_Fired):
    """Fires, then schedules a child from inside the callback."""

    def __init__(self, log, label, sim, delay):
        super().__init__(log, label)
        self.sim = sim
        self.delay = delay

    def __call__(self):
        super().__call__()
        self.sim.schedule(self.delay, _Fired(self.log, -self.label))


class ReferenceCalendar:
    """What the engine must be indistinguishable from: a list of
    ``[time, seq, label, child_delay, state]`` entries, dispatched by
    sorting on ``(time, seq)``. ``state`` is "live", "dead" (cancelled,
    still in the calendar) or "gone" (fired or compacted away)."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []
        self.fired = []
        self.events_processed = 0
        self.events_cancelled = 0
        self.queue_compactions = 0
        self.cancelled_pending = 0

    def schedule(self, delay, label, child_delay=None):
        entry = [self.now + delay, self.seq, label, child_delay, "live"]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def schedule_at(self, when, label):
        return self.schedule(when - self.now, label)

    def schedule_from(self, origin, when, label):
        entry = self.schedule(0.0, label)
        entry[0] = origin + (when - origin)
        return entry

    def reserve(self, delay):
        key = (self.now + delay, self.seq)
        self.seq += 1
        return key

    def schedule_reserved(self, key, label):
        entry = [key[0], key[1], label, None, "live"]
        self.entries.append(entry)
        return entry

    def cancel(self, entry):
        if entry[4] != "live":
            return
        entry[4] = "dead"
        self.events_cancelled += 1
        self.cancelled_pending += 1
        if (
            self.cancelled_pending > _COMPACT_MIN_QUEUE
            and self.cancelled_pending * 2 > len(self.entries)
        ):
            for dead in self.entries:
                if dead[4] == "dead":
                    dead[4] = "gone"
            self.entries = [e for e in self.entries if e[4] == "live"]
            self.cancelled_pending = 0
            self.queue_compactions += 1

    def run(self, until=None, max_events=None):
        budget = max_events
        while budget is None or budget > 0:
            self.entries.sort(key=lambda e: (e[0], e[1]))
            # dead entries ahead of the next live one surface and go
            while self.entries and self.entries[0][4] == "dead":
                self.entries.pop(0)[4] = "gone"
                self.cancelled_pending -= 1
            if not self.entries or (until is not None and self.entries[0][0] > until):
                if until is not None:
                    self.now = max(self.now, until)
                return
            entry = self.entries.pop(0)
            entry[4] = "gone"
            self.now = entry[0]
            self.events_processed += 1
            self.fired.append(entry[2])
            if entry[3] is not None:
                self.schedule(entry[3], -entry[2])
            if budget is not None:
                budget -= 1


delays = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), delays),
        st.tuples(st.just("schedule_at"), delays),
        st.tuples(st.just("schedule_from"), delays, delays),
        st.tuples(st.just("spawner"), delays, delays),
        st.tuples(st.just("reserve"), delays),
        st.tuples(st.just("redeem"), st.integers(0, 10**6)),
        st.tuples(st.just("cancel"), st.integers(0, 10**6)),
        st.tuples(st.just("cancel_many"), st.integers(0, 10**6)),
        st.tuples(st.just("burst"), st.integers(65, 90)),
        st.tuples(st.just("run_until"), delays),
        st.tuples(st.just("run_max"), st.integers(0, 12)),
        st.tuples(st.just("run_both"), delays, st.integers(0, 12)),
        st.tuples(st.just("snapshot")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=operations)
@example(
    # a reservation redeemed behind later events, one left to lapse
    ops=[("reserve", 1.0), ("schedule", 1.0), ("reserve", 0.5), ("run_until", 0.75),
         ("redeem", 0), ("snapshot",), ("redeem", 0), ("schedule", 0.25), ("run_until", 5.0)]
)
@example(
    # two bursts, two thirds of them cancelled: a compaction, then a drain
    ops=[("burst", 90), ("burst", 90), ("cancel_many", 0), ("snapshot",), ("cancel_many", 1),
         ("run_max", 7), ("cancel_many", 2), ("run_until", 5.0)]
)
def test_simulator_matches_sorted_list_reference(ops):
    sim = Simulator()
    sim.log = []
    model = ReferenceCalendar()
    handles = []  # [engine event, model entry] pairs, in scheduling order
    reserved = []  # keys drawn and not yet redeemed

    def both_schedule(delay, label):
        handles.append([sim.schedule(delay, _Fired(sim.log, label)), model.schedule(delay, label)])

    for number, op in enumerate(ops, start=1):
        kind = op[0]
        if kind == "schedule":
            both_schedule(op[1], number)
        elif kind == "schedule_at":
            when = sim.now + op[1]
            handles.append(
                [sim.schedule_at(when, _Fired(sim.log, number)), model.schedule_at(when, number)]
            )
        elif kind == "schedule_from":
            origin = sim.now + op[1]
            when = origin + op[2]
            handles.append(
                [
                    sim.schedule_from(origin, when, _Fired(sim.log, number)),
                    model.schedule_from(origin, when, number),
                ]
            )
        elif kind == "spawner":
            handles.append(
                [
                    sim.schedule(op[1], _Spawner(sim.log, number, sim, op[2])),
                    model.schedule(op[1], number, child_delay=op[2]),
                ]
            )
        elif kind == "reserve":
            reserved.append(sim.reserve(op[1]))
            assert model.reserve(op[1]) == reserved[-1]
        elif kind == "redeem" and reserved:
            key = reserved.pop(op[1] % len(reserved))
            if key[0] < sim.now:
                with pytest.raises(SimulationError):
                    sim.schedule_reserved(key, _Fired(sim.log, number))
            else:
                handles.append(
                    [
                        sim.schedule_reserved(key, _Fired(sim.log, number)),
                        model.schedule_reserved(key, number),
                    ]
                )
        elif kind == "cancel" and handles:
            # any handle: pending, already cancelled, or already fired
            event, entry = handles[op[1] % len(handles)]
            event.cancel()
            model.cancel(entry)
        elif kind == "cancel_many":
            for event, entry in handles[op[1] % 3 :: 3]:
                event.cancel()
                model.cancel(entry)
        elif kind == "burst":
            # enough same-instant timers that cancelling them compacts
            for _ in range(op[1]):
                both_schedule(4.0, number)
        elif kind == "run_until":
            sim.run(until=sim.now + op[1])
            model.run(until=model.now + op[1])
        elif kind == "run_max":
            sim.run(max_events=op[1])
            model.run(max_events=op[1])
        elif kind == "run_both":
            sim.run(until=sim.now + op[1], max_events=op[2])
            model.run(until=model.now + op[1], max_events=op[2])
        elif kind == "snapshot":
            blob = snapshot_system((sim, [event for event, _ in handles], reserved), verify=True)
            sim, events, reserved = restore_system(blob)
            for pair, event in zip(handles, events):
                pair[0] = event
        assert sim.log == model.fired
        assert sim.now == model.now
        assert (sim.events_processed, sim.events_cancelled, sim.queue_compactions) == (
            model.events_processed,
            model.events_cancelled,
            model.queue_compactions,
        )
        assert sim.pending_events() == len(model.entries)

    sim.run()
    model.run()
    assert sim.log == model.fired and sim.now == model.now
    assert sim.idle() and sim.events_processed == model.events_processed


# ---------------------------------------------------------------------------
# the fault injector
# ---------------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0


class ReferenceInjector:
    """The verdict as it was before outages were indexed per link: scan
    every window ever scheduled, ended ones included."""

    def __init__(self, seed, loss_rate):
        self.rng = random.Random(seed)
        self.default_loss = loss_rate
        self.link_loss = {}
        self.outages = []  # (node, direction, start, end)
        self.partitions = []  # (side_a, side_b, start, end)

    def drop_reason(self, src, dst, now):
        if (
            self.default_loss == 0.0
            and not any(self.link_loss.values())
            and not self.outages
            and not self.partitions
        ):
            return None
        for link in ((src, "up"), (dst, "down")):
            if any((n, d) == link and start <= now < end for n, d, start, end in self.outages):
                return "outage"
        for side_a, side_b, start, end in self.partitions:
            if start <= now < end and (
                (src in side_a and dst in side_b) or (src in side_b and dst in side_a)
            ):
                return "partition"
        p_up = self.link_loss.get((src, "up"), self.default_loss)
        p_down = self.link_loss.get((dst, "down"), self.default_loss)
        p = 1.0 - (1.0 - p_up) * (1.0 - p_down)
        if p > 0.0 and self.rng.random() < p:
            return "loss"
        return None


NODES = 6
node_ids = st.integers(0, NODES - 1)
times = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
durations = st.floats(min_value=0.01, max_value=8.0, allow_nan=False)
fault_steps = st.lists(
    st.one_of(
        st.tuples(st.just("outage"), node_ids, times, durations, st.sampled_from(["up", "down", "both"])),
        st.tuples(
            st.just("partition"),
            st.sets(node_ids, min_size=1, max_size=NODES - 1),
            st.sets(node_ids, min_size=1, max_size=NODES - 1),
            times,
            durations,
        ),
        st.tuples(st.just("loss"), node_ids, st.floats(0.0, 0.6), st.sampled_from(["up", "down"])),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=3.0, allow_nan=False)),
        st.tuples(st.just("packets"), st.lists(st.tuples(node_ids, node_ids), min_size=1, max_size=8)),
    ),
    max_size=50,
)


@settings(max_examples=150, deadline=None)
@given(steps=fault_steps, seed=st.integers(0, 2**32 - 1), loss=st.sampled_from([0.0, 0.0, 0.05, 0.3]))
def test_drop_reason_matches_full_scan_reference(steps, seed, loss):
    """Same verdict for every packet and the same RNG state afterwards,
    over random plans — faults may be scheduled mid-run, in the past, or
    overlapping — and a clock that only moves forward."""
    clock = _Clock()
    injector = FaultInjector(clock, seed=seed, loss_rate=loss)
    reference = ReferenceInjector(seed, loss)
    for step in steps:
        kind = step[0]
        if kind == "outage":
            _, node, at, duration, direction = step
            injector.schedule_outage(node, at, duration, direction=direction)
            for d in ("up", "down") if direction == "both" else (direction,):
                reference.outages.append((node, d, at, at + duration))
        elif kind == "partition":
            _, side_a, side_b, at, duration = step
            side_b = side_b - side_a
            if not side_b:
                continue
            injector.schedule_partition(side_a, side_b, at, duration)
            reference.partitions.append((side_a, side_b, at, at + duration))
        elif kind == "loss":
            _, node, rate, direction = step
            injector.set_loss_rate(rate, node_id=node, direction=direction)
            reference.link_loss[(node, direction)] = rate
        elif kind == "advance":
            clock.now += step[1]
        elif kind == "packets":
            for src, dst in step[1]:
                assert injector.drop_reason(src, dst) == reference.drop_reason(src, dst, clock.now)
                assert injector.outage_active(src, "up", clock.now) == any(
                    (n, d) == (src, "up") and start <= clock.now < end
                    for n, d, start, end in reference.outages
                )
    assert injector.rng.getstate() == reference.rng.getstate()
