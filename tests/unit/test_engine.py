"""Unit tests for the discrete-event engine."""

import gc

import pytest

from repro.simnet.engine import _RUN_GC_THRESHOLD, ScheduledEvent, SimulationError, Simulator


def _key(sim, label):
    """``(time, seq)`` of the pending entry whose args are ``(label,)``:
    only a timer hands back a handle, so the rest are read off the
    calendar."""
    (key,) = [(entry[0], entry[1]) for entry in sim._queue if entry[3] == (label,)]
    return key


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.timer(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_events_skipped_by_peek(self):
        sim = Simulator()
        event = sim.timer(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0


class TestBoundedRuns:
    def test_run_until_holds_back_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_chained_run_until_is_cumulative(self):
        sim = Simulator()
        fired = []
        for i in range(1, 5):
            sim.schedule(float(i), fired.append, i)
        sim.run(until=1.5)
        sim.run(until=3.5)
        assert fired == [1, 2, 3]


class TestIntrospection:
    def test_idle_reporting(self):
        sim = Simulator()
        assert sim.idle()
        sim.schedule(1.0, lambda: None)
        assert not sim.idle()
        sim.run()
        assert sim.idle()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_step_stops_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(3.0, fired.append, "out")
        assert sim.step(until=2.0) is True
        assert sim.step(until=2.0) is False  # next event lies past the horizon
        assert fired == ["in"] and sim.now == 1.0
        assert sim.pending_events() == 1
        assert sim.step() is True
        assert fired == ["in", "out"]

    def test_event_exposes_its_record(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        event = sim.timer(0.5, print, "x", 2)
        assert (event.time, event.seq, event.callback, event.args) == (1.5, 1, print, ("x", 2))
        assert not event.cancelled
        event.cancel()
        assert event.cancelled


class TestCancellationAccounting:
    def test_cancel_counts_and_is_idempotent(self):
        sim = Simulator()
        ev = sim.timer(1.0, lambda: None)
        ev.cancel()
        ev.cancel()  # idempotent: must not double-count
        assert sim.events_cancelled == 1
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        events = [sim.timer(float(i), lambda: None) for i in range(100)]
        sim.run()
        for ev in events:
            ev.cancel()
        # No dead entry sits in the calendar, so nothing may be counted
        # (this used to report 100 cancels, compact an empty queue and
        # leave the dead-entry gauge stuck at 35).
        assert sim.events_cancelled == 0
        assert sim.queue_compactions == 0
        assert sim._cancelled_pending == 0
        # ... and the compaction trigger still sees only real dead entries.
        later = [sim.timer(10.0 + i, lambda: None) for i in range(200)]
        for ev in later[:64]:
            ev.cancel()
        assert sim.queue_compactions == 0  # 64 dead: not above the floor
        later[64].cancel()
        assert sim.queue_compactions == 0  # 65 dead of 200: not yet half
        assert sim.events_cancelled == 65

    def test_cancelling_itself_while_firing_is_a_noop(self):
        sim = Simulator()
        box = []
        box.append(sim.timer(1.0, lambda: box[0].cancel()))
        sim.run()
        assert sim.events_processed == 1
        assert sim.events_cancelled == 0

    def test_compaction_evicts_dead_entries(self):
        sim = Simulator()
        keep = [sim.timer(100.0 + i, lambda: None) for i in range(10)]
        dead = [sim.timer(50.0 + i, lambda: None) for i in range(500)]
        for ev in dead:
            ev.cancel()
        # Cancelling a majority of a big-enough queue triggers compaction.
        # Compaction is amortised, so a sub-threshold residue of dead
        # entries may linger — but the bulk must be gone.
        assert sim.queue_compactions >= 1
        assert len(keep) <= sim.pending_events() <= len(keep) + 2 * 64
        assert sim.events_cancelled == len(dead)
        sim.run()
        assert sim.events_processed == len(keep)

    def test_compaction_preserves_order(self):
        sim = Simulator()
        fired = []
        for i in range(200):
            sim.schedule(float(i), fired.append, i)
        victims = [sim.timer(1000.0, lambda: None) for _ in range(300)]
        for ev in victims:
            ev.cancel()
        sim.run()
        assert fired == list(range(200))

    def test_small_queues_are_never_compacted(self):
        sim = Simulator()
        evs = [sim.timer(float(i), lambda: None) for i in range(10)]
        for ev in evs:
            ev.cancel()
        assert sim.queue_compactions == 0
        sim.run()
        assert sim.events_processed == 0


class TestReservations:
    """``reserve`` + ``schedule_reserved`` is ``schedule`` in two steps."""

    DELAYS = [0.5, 0.25, 0.5, 0.0, 0.25, 1.0, 0.5, 0.25]

    def test_redeemed_reservations_fire_where_schedule_would_have(self):
        eager, lazy = Simulator(), Simulator()
        eager_log, lazy_log = [], []
        for label, delay in enumerate(self.DELAYS):
            eager.schedule(delay, eager_log.append, label)
        keys = {}
        for label, delay in enumerate(self.DELAYS):
            if label % 2:
                keys[label] = lazy.reserve(delay)
            else:
                lazy.schedule(delay, lazy_log.append, label)
        assert [keys[label] for label in keys] == [_key(eager, label) for label in keys]
        # redeemed late and out of order: the key decides, not the moment
        for label in sorted(keys, reverse=True):
            assert lazy.schedule_reserved(keys[label], lazy_log.append, label) == keys[label][0]
            assert _key(lazy, label) == keys[label]
        for sim, log in ((eager, eager_log), (lazy, lazy_log)):
            sim.schedule(0.25, log.append, "later")
            assert _key(sim, "later")[1] == len(self.DELAYS)
        eager.run()
        lazy.run()
        assert lazy_log == eager_log
        assert (lazy.now, lazy.events_processed) == (eager.now, eager.events_processed)

    def test_an_unredeemed_reservation_costs_no_event(self):
        sim = Simulator()
        sim.reserve(1.0)
        assert sim.pending_events() == 0
        sim.schedule(1.0, print, "x")
        assert _key(sim, "x")[1] == 1  # its place in line stays taken
        sim.run()
        assert sim.events_processed == 1

    def test_redeeming_from_inside_a_callback(self):
        sim = Simulator()
        fired = []
        key = sim.reserve(2.0)
        sim.schedule(2.0, fired.append, "after")
        sim.schedule(1.0, sim.schedule_reserved, key, fired.append, "reserved")
        sim.run()
        assert fired == ["reserved", "after"]

    def test_key_in_the_past_is_rejected(self):
        sim = Simulator()
        key = sim.reserve(1.0)
        sim.run(until=2.0)
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_reserved(key, lambda: None)
        with pytest.raises(SimulationError):
            sim.reserve(-0.1)

    def test_key_never_reserved_is_rejected(self):
        sim = Simulator()
        sim.reserve(1.0)
        for forged in ((1.0, 1), (1.0, -1)):
            with pytest.raises(SimulationError, match="never reserved"):
                sim.schedule_reserved(forged, lambda: None)

    def test_reserved_keys_round_trip_through_a_snapshot(self):
        from repro.simnet.snapshot import restore_system, snapshot_system

        def build():
            sim = Simulator()
            sim.log = []
            sim.schedule(1.0, sim.log.append, "a")
            held = [sim.reserve(1.0), sim.reserve(0.5)]
            sim.schedule(1.0, sim.log.append, "d")
            sim.schedule_reserved(held[1], sim.log.append, "c")
            sim.run(until=0.75)
            return sim, held

        sim, held = build()
        clone, held_c = restore_system(snapshot_system((sim, held), verify=True))
        assert held_c == held and type(held_c[0]) is tuple
        for each, keys in ((sim, held), (clone, held_c)):
            each.schedule_reserved(keys[0], each.log.append, "b")
            each.schedule(0.0, each.log.append, "e")
            assert _key(each, "e")[1] == 4
            each.run()
            assert each.log == ["c", "e", "a", "b", "d"]
        assert (clone.now, clone.events_processed) == (sim.now, sim.events_processed)


@pytest.fixture
def collector():
    """The cycle collector's state, put back after the test."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


class TestCollectorStaysTheCallers:
    """``run`` raises the young generation's threshold for its own length
    and hands back exactly the collector state it found."""

    CALLER = (600, 11, 12)

    @staticmethod
    def _seen_while_running(sim):
        seen = []
        sim.schedule(0.0, lambda: seen.append(gc.get_threshold()))
        return seen

    def test_normal_return(self, collector):
        gc.set_threshold(*self.CALLER)
        sim = Simulator()
        seen = self._seen_while_running(sim)
        sim.run()
        assert seen == [(_RUN_GC_THRESHOLD, 11, 12)]
        assert gc.get_threshold() == self.CALLER

    def test_exit_at_max_events(self, collector):
        gc.set_threshold(*self.CALLER)
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=2)
        assert sim.events_processed == 2 and sim.pending_events() == 3
        assert gc.get_threshold() == self.CALLER

    def test_callback_raises(self, collector):
        gc.set_threshold(*self.CALLER)
        sim = Simulator()
        sim.schedule(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert gc.get_threshold() == self.CALLER

    def test_run_nested_inside_a_callback(self, collector):
        gc.set_threshold(*self.CALLER)
        outer, inner = Simulator(), Simulator()
        seen = self._seen_while_running(inner)
        after_inner = []
        outer.schedule(1.0, lambda: (inner.run(), after_inner.append(gc.get_threshold())))
        outer.run()
        assert seen == after_inner == [(_RUN_GC_THRESHOLD, 11, 12)]
        assert gc.get_threshold() == self.CALLER

    def test_a_disabled_collector_stays_disabled(self, collector):
        gc.set_threshold(*self.CALLER)
        gc.disable()
        sim = Simulator()
        enabled = []
        sim.schedule(0.0, lambda: enabled.append(gc.isenabled()))
        sim.run()
        assert enabled == [False] and not gc.isenabled()
        assert gc.get_threshold() == self.CALLER
        gc.enable()
        gc.set_threshold(0, 10, 10)  # the other way to turn it off
        seen = self._seen_while_running(sim)
        sim.run()
        assert seen == [(0, 10, 10)] and gc.get_threshold() == (0, 10, 10)

    def test_a_larger_threshold_is_kept(self, collector):
        larger = (_RUN_GC_THRESHOLD * 4, 10, 10)
        gc.set_threshold(*larger)
        sim = Simulator()
        seen = self._seen_while_running(sim)
        sim.run()
        assert seen == [larger] and gc.get_threshold() == larger


def _flood(arq: bool = False):
    from benchmarks.baseline import _flood_system

    return _flood_system(arq=arq)


def _lossy():
    from repro.core.config import timer_regime
    from repro.core.system import RacSystem

    system = RacSystem(timer_regime("detect", link_loss_rate=0.02), seed=16)
    system.bootstrap(16)
    system.run(0.6)
    return system


def _dh():
    from repro.core.config import RacConfig
    from repro.core.system import RacSystem

    system = RacSystem(RacConfig.small(key_backend="dh", join_settle_time=0.05), seed=16)
    system.bootstrap(8)
    system.run(0.6)
    return system


@pytest.mark.parametrize("build", [_flood, _lossy, _dh], ids=["flood-40", "lossy-16", "dh-8"])
def test_the_event_loop_makes_no_cyclic_garbage(build, collector):
    """What licenses ``run``'s raised threshold: with the collector off,
    0.3 simulated seconds of the flood shape (115,440 events), a 2%-loss
    window (19,720 events) and a DH window, one send per node in each,
    leave nothing for ``gc.collect()`` to find."""
    system = build()
    ids = list(system.nodes)
    gc.collect()
    gc.disable()
    for k, src in enumerate(ids):
        system.send(src, ids[(k + 3) % len(ids)], b"cycle-free %d" % k)
    system.run(0.3)
    found = gc.collect()
    assert found == 0, (
        f"{found} unreachable objects after 0.3 simulated s: the simulator now makes reference "
        "cycles, and Simulator.run's raised young-generation threshold would be hiding a "
        "per-event leak (break the cycle, or size _RUN_GC_THRESHOLD again)"
    )


class TestCalendarContract:
    """Only a timer is a handle. ``schedule`` and its siblings return
    the instant, and no entry but a pending timer points back at its
    simulator; a simulation holds no timer."""

    def test_each_schedule_returns_the_instant_its_callback_sees(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run()
        seen = {}

        def note(name):
            seen[name] = sim.now

        # 0.1 + 0.2, 0.1 + (0.41 - 0.1) and 0.3 + (0.9 - 0.3) all round
        # away from the decimal the caller wrote: the rounded one is returned
        returned = {
            "schedule": sim.schedule(0.2, note, "schedule"),
            "schedule_at": sim.schedule_at(0.41, note, "schedule_at"),
            "schedule_from": sim.schedule_from(0.3, 0.9, note, "schedule_from"),
            "schedule_reserved": sim.schedule_reserved(sim.reserve(0.2), note, "schedule_reserved"),
            "timer": sim.timer(0.2, note, "timer").time,
        }
        for name, written in (("schedule", 0.3), ("schedule_at", 0.41), ("schedule_from", 0.9)):
            assert returned[name] != written
        sim.run()
        assert all(type(when) is float for when in returned.values())
        assert {name: when.hex() for name, when in returned.items()} == {
            name: when.hex() for name, when in seen.items()
        }

    def test_after_a_flood_window_no_entry_holds_its_simulator(self):
        system = _flood(arq=True)
        system.run(0.3)
        sim, transport = system.sim, system.transport
        assert transport.direct is False
        assert sim._queue and all(type(entry) is list and entry[4] is None for entry in sim._queue)
        # the ARQ's retransmit deadlines are tickets behind one watch entry
        outstanding = sum(len(state.outstanding) for state in transport._senders.values())
        watches = [entry for entry in sim._queue if entry[2] == transport._on_timeout]
        assert len(watches) == 1 < outstanding
        assert (sim.events_cancelled, sim.queue_compactions) == (0, 0)
