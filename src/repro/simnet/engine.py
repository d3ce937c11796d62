"""Discrete-event simulation engine.

The paper evaluates every protocol inside Omnet++, a C++ discrete-event
simulator. This module is the Python substitute: a classic
calendar-queue engine with deterministic tie-breaking so that two runs
with the same seed replay the same event order.

Three hot-path properties matter at scale (a 64-node run pushes ~10M
events through this queue):

* a calendar entry is an exact list ``[time, seq, callback, args,
  owner]``, so ``heappush`` / ``heappop`` order entries with C list
  comparison on ``(time, seq)`` — ``seq`` is unique, the comparison
  never reaches the callback — scheduling allocates one list, and
  CPython specialises :meth:`Simulator.step`'s index reads for exact
  lists only. ``schedule`` and its siblings return just the instant
  the entry fires at and leave ``owner`` ``None``: nobody holds the
  entry, so nothing can cancel it. The one cancellable entry is
  :meth:`Simulator.timer`'s :class:`ScheduledEvent`, the same record
  as a list subclass whose ``owner`` points back at the simulator
  while it is pending (nothing in a simulation holds one: the ARQ
  keeps reserved keys instead, see below);
* :meth:`Simulator.step` is the whole per-event cost: it sheds dead
  heads, stops at the horizon, pops and dispatches in one call, and
  :meth:`Simulator.run` is a loop over it;
* cancelled timers are counted and the queue is **compacted** when the
  dead entries outnumber half the heap, instead of waiting for each one
  to surface at the heap head (a caller cancelling one timer per
  message would otherwise fill the calendar with dead entries under
  load).

All of it is order-preserving: events fire in exactly ``(time, seq)``
order with ``seq`` drawn once per ``schedule`` or ``timer`` call, so
fixed-seed runs replay byte-identically.

The event loop makes no reference cycles: a fired event's record, its
packets and segments die by reference count (``test_engine.py`` pins
zero unreachable objects after a flood, a lossy and a DH window).
CPython's cycle collector nonetheless walks the young generation every
700 net allocations, and a flood allocates ~25 objects per segment, so
:meth:`Simulator.run` raises the generation-0 threshold to
:data:`_RUN_GC_THRESHOLD` for the length of the run and puts back the
thresholds it found. It never lowers a larger threshold and never arms
a collector the caller turned off.

A caller that will probably never need its timer can take the place in
line without the calendar entry: :meth:`Simulator.reserve` draws the
``(time, seq)`` key ``schedule`` would have used, and
:meth:`Simulator.schedule_reserved` inserts an event under that key if
it turns out to be needed. Every other event keeps its ``seq`` either
way, so the two spellings replay identically. The predecessor check of
:mod:`repro.core.node` takes one reservation per first-seen message and
keeps one calendar entry per node and domain; the ARQ transport
(:mod:`repro.simnet.transport`) takes one per transmission and keeps
one entry per transport.

The engine knows nothing about networks; :mod:`repro.simnet.network`
builds the star topology on top of it.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "ScheduledEvent", "SimulationError"]

#: Compaction never triggers below this queue size; rebuilding tiny
#: heaps costs more than letting the dead entries surface naturally.
_COMPACT_MIN_QUEUE = 64

#: Generation-0 collection threshold while :meth:`Simulator.run` drains
#: the calendar (CPython's default is 700). Sized on ``sim-flood-40``:
#: 2,000 and 5,000 both cut its CPU by ~7% with peak RSS flat; 10,000
#: saved less and grew RSS by 6.5%.
_RUN_GC_THRESHOLD = 5_000


class SimulationError(Exception):
    """Raised on scheduling into the past or similar misuse."""


class ScheduledEvent(list):
    """A cancellable calendar entry, built only by :meth:`Simulator.timer`
    (no simulation component holds one; reserved keys do that job).

    The record is the list ``[time, seq, callback, args, owner]`` every
    entry has. ``callback`` is ``None`` once the event is cancelled;
    ``owner`` is the simulator whose calendar holds the entry and
    ``None`` once the event has left it by firing or by being
    cancelled. Entries from ``schedule`` and its siblings are plain
    lists with ``owner`` always ``None``: only a held handle needs
    ``cancel`` and the back-pointer it follows.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def callback(self) -> "Optional[Callable[..., Any]]":
        return self[2]

    @property
    def args(self) -> tuple:
        return self[3]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Mark a pending event dead; it will be skipped (or compacted
        away) instead of firing. A no-op on an event that has already
        fired or been cancelled."""
        owner = self[4]
        if owner is None:
            return
        self[2] = self[4] = None
        owner.events_cancelled += 1
        pending = owner._cancelled_pending = owner._cancelled_pending + 1
        if pending > _COMPACT_MIN_QUEUE and pending * 2 > len(owner._queue):
            owner._compact()


class Simulator:
    """A deterministic discrete-event scheduler.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: "List[list]" = []
        #: Next tie-break number; a plain integer so that a snapshot
        #: restores the ``(time, seq)`` replay order exactly.
        self._seq = 0
        self.events_processed = 0
        #: Total cancel() calls on still-pending events (monotonic).
        self.events_cancelled = 0
        #: Times the calendar was rebuilt to shed cancelled entries.
        self.queue_compactions = 0
        self._cancelled_pending = 0

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> float:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from
        now; returns the instant it will run at. The entry cannot be
        cancelled (see :meth:`timer`)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        heappush(self._queue, [time, seq, callback, args, None])
        return time

    def timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule exactly as :meth:`schedule` does (same rounding, same
        ``seq``) and return the entry itself: a :class:`ScheduledEvent`
        whose ``cancel()`` keeps it from firing."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent((self.now + delay, seq, callback, args, self))
        heappush(self._queue, event)
        return event

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> float:
        """Schedule ``callback(*args)`` at absolute time ``when``;
        returns the instant the engine rounded it to."""
        now = self.now
        delay = when - now
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        seq = self._seq
        self._seq = seq + 1
        # now + (when - now), not ``when``: the two differ in the last
        # bit, and pinned runs replay the rounded sum.
        time = now + delay
        heappush(self._queue, [time, seq, callback, args, None])
        return time

    def schedule_from(
        self, origin: float, when: float, callback: Callable[..., Any], *args: Any
    ) -> float:
        """Schedule ``callback(*args)`` at the instant ``schedule_at(when,
        ...)`` would pick if it were called at the future time
        ``origin``: the rounded sum ``origin + (when - origin)``."""
        delay = when - origin
        if origin < self.now or delay < 0:
            raise SimulationError(f"need now <= origin <= when, not {self.now}, {origin}, {when}")
        seq = self._seq
        self._seq = seq + 1
        time = origin + delay
        heappush(self._queue, [time, seq, callback, args, None])
        return time

    def reserve(self, delay: float) -> "Tuple[float, int]":
        """Take the ``(time, seq)`` place in line that
        ``schedule(delay, ...)`` would take now, without a calendar
        entry. The key is plain data: it can wait in protocol state
        (and in a snapshot) until :meth:`schedule_reserved` uses it, or
        be dropped unused."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        seq = self._seq
        self._seq = seq + 1
        return (self.now + delay, seq)

    def schedule_reserved(
        self, key: "Tuple[float, int]", callback: Callable[..., Any], *args: Any
    ) -> float:
        """Schedule ``callback(*args)`` at a key drawn by :meth:`reserve`.

        The event fires exactly where a ``schedule`` call made at
        reservation time would have fired. A key may be inserted at
        most once — two entries under one key would tie on
        ``(time, seq)`` — and not after its instant has passed.
        """
        time, seq = key
        if time < self.now:
            raise SimulationError(f"reserved key {key} lies {self.now - time}s in the past")
        if not 0 <= seq < self._seq:
            raise SimulationError(f"key {key} was never reserved")
        heappush(self._queue, [time, seq, callback, args, None])
        return time

    def _compact(self) -> None:
        """Rebuild the calendar without its cancelled entries.

        Heap order is a function of the ``(time, seq)`` keys alone, so
        dropping entries and re-heapifying cannot reorder the survivors.
        """
        self._queue = [event for event in self._queue if event[2] is not None]
        heapify(self._queue)
        self._cancelled_pending = 0
        self.queue_compactions += 1

    def pending_events(self) -> int:
        """Calendar entries currently held, cancelled ones included."""
        return len(self._queue)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when idle."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)
            self._cancelled_pending -= 1
        return queue[0][0] if queue else None

    def step(self, until: "float | None" = None) -> bool:
        """Run the single next event. Returns ``False`` — and fires
        nothing — when idle or when the next event lies past ``until``."""
        queue = self._queue
        while queue:
            event = queue[0]
            callback = event[2]
            if callback is None:
                heappop(queue)
                self._cancelled_pending -= 1
                continue
            time = event[0]
            if until is not None and time > until:
                return False
            heappop(queue)
            event[4] = None
            self.now = time
            self.events_processed += 1
            callback(*event[3])
            return True
        return False

    def run(self, until: "float | None" = None, max_events: "int | None" = None) -> None:
        """Drain the queue, optionally bounded by time or event count.

        With ``until``, events strictly after the horizon stay queued
        and the clock is advanced exactly to the horizon — so repeated
        ``run(until=...)`` calls chain cleanly. A run that stops on its
        event budget leaves the clock at the last event fired.

        Until the run returns or raises, a cycle collector the caller
        left on has a young generation at least
        :data:`_RUN_GC_THRESHOLD` allocations deep (see the module
        docstring).
        """
        thresholds = gc.get_threshold()
        raised = 0 < thresholds[0] < _RUN_GC_THRESHOLD
        if raised:
            gc.set_threshold(_RUN_GC_THRESHOLD, *thresholds[1:])
        try:
            step = self.step
            if max_events is None:
                while step(until):
                    pass
            else:
                for _ in range(max_events):
                    if not step(until):
                        break
                else:
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            if raised:
                gc.set_threshold(*thresholds)

    def idle(self) -> bool:
        """True when no live events remain."""
        return self.peek_time() is None
