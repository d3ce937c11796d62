"""The three misbehaviour checks of Section IV-C.

Nodes check that:

1. *"the relays they use to send their own messages correctly forward
   messages"* — :class:`RelayMonitor`, run by the **sender** of an
   onion, who can predict the ``msg_id`` of every layer it built;
2. *"the nodes that directly precede them in the different rings of
   channels and group correctly forward messages (once and only
   once)"* — :class:`PredecessorMonitor`;
3. *"the nodes that directly precede them in the different rings of
   their group send messages at a constant rate"* —
   :class:`RateMonitor`.

All three classes are deliberately free of simulator state: time flows
in as explicit arguments, verdicts flow out as plain data, and the node
wires them to timers and accusation broadcasts. That keeps every rule
unit-testable without a network.

**Fault model.** The paper assumes TCP on a lossless network (footnote
6), so every check treats absence as misbehaviour. On a lossy network
(:mod:`repro.simnet.faults`) the ARQ transport masks loss by
retransmitting, which *delays* deliveries by up to a few RTOs — the
timeouts handed to these monitors must therefore exceed the transport's
retransmission recovery budget (enforced at bootstrap by
``RacSystem._validate_timers``). An outage longer than
``predecessor_timeout`` remains indistinguishable from freeriding: that
is the protocol's documented accountability/availability trade-off, not
a bug (see DESIGN.md "Fault model").
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..overlay.broadcast import BroadcastState, CopyKey

__all__ = ["RelaySuspicion", "RelayMonitor", "PredecessorMonitor", "RateMonitor", "RateVerdict"]

#: A timer reservation, ``(fire time, tie-break)``: see
#: :meth:`repro.core.environment.NodeEnvironment.reserve`.
Ticket = Tuple[float, int]


# --------------------------------------------------------------------------
# Check 1 — relays forward what they are given
# --------------------------------------------------------------------------

@dataclass(slots=True)
class RelaySuspicion:
    """Verdict of check 1: ``relay`` failed to re-broadcast ``msg_id``."""

    relay: int
    msg_id: int
    onion_ref: int


@dataclass(slots=True)
class _PendingOnion:
    """Sender-side record of one onion's expected broadcast chain."""

    onion_ref: int
    #: (expected msg_id, responsible relay) outermost-first. The first
    #: entry is the sender's own broadcast and carries no relay.
    chain: List[Tuple[int, Optional[int]]]
    deadline: float
    observed: Set[int] = field(default_factory=set)


class RelayMonitor:
    """Tracks every onion a node sent and blames the *first* relay whose
    layer never appeared (paper: *"The first relay, if any, that does
    not correctly decipher and forward the message, is suspected"*)."""

    __slots__ = ("_pending", "_watch", "_next_ref")

    def __init__(self) -> None:
        self._pending: Dict[int, _PendingOnion] = {}
        self._watch: Dict[int, Set[int]] = {}  # msg_id -> onion refs
        self._next_ref = 0

    def __len__(self) -> int:
        return len(self._pending)

    def expect(self, layer_msg_ids: Sequence[int], relays: Sequence[int], deadline: float) -> int:
        """Register an onion: layer ids (L+1 of them) and its L relays.

        Layer ``k >= 1`` is re-broadcast by ``relays[k-1]``. Returns an
        opaque reference usable to correlate suspicions.
        """
        if len(layer_msg_ids) != len(relays) + 1:
            raise ValueError("an onion has exactly one more layer than relays")
        ref = self._next_ref
        self._next_ref += 1
        chain: List[Tuple[int, Optional[int]]] = [(layer_msg_ids[0], None)]
        chain.extend((msg_id, relay) for msg_id, relay in zip(layer_msg_ids[1:], relays))
        self._pending[ref] = _PendingOnion(ref, chain, deadline)
        for msg_id, _relay in chain:
            self._watch.setdefault(msg_id, set()).add(ref)
        return ref

    def observe(self, msg_id: int) -> None:
        """Feed every broadcast the node sees; fulfils expectations."""
        for ref in self._watch.get(msg_id, ()):
            pending = self._pending.get(ref)
            if pending is not None:
                pending.observed.add(msg_id)

    def pending_refs(self) -> "Set[int]":
        """References of onions still awaiting their deadline."""
        return set(self._pending)

    def collect_expired(self, now: float) -> "List[RelaySuspicion]":
        """Resolve every onion past its deadline; at most one suspicion
        each (the first silent relay; later silence is its fault)."""
        verdicts: List[RelaySuspicion] = []
        expired = [ref for ref, p in self._pending.items() if p.deadline <= now]
        for ref in expired:
            pending = self._pending.pop(ref)
            for msg_id, _ in pending.chain:
                refs = self._watch.get(msg_id)
                if refs is not None:
                    refs.discard(ref)
                    if not refs:
                        del self._watch[msg_id]
            for msg_id, relay in pending.chain:
                if msg_id in pending.observed:
                    continue
                if relay is not None:
                    verdicts.append(RelaySuspicion(relay, msg_id, ref))
                break  # only the first gap is attributable
        return verdicts


# --------------------------------------------------------------------------
# Check 2 — predecessors forward once and only once
# --------------------------------------------------------------------------

class PredecessorMonitor:
    """Per-domain check that every (predecessor, ring) delivered every
    message exactly once within a bounded time.

    The check **settles on arrival**. At first sight of a message the
    monitor takes the set of (predecessor, ring) pairs that *still owe*
    a copy; :meth:`on_copy` strikes a pair when its copy arrives and
    drops the message once nothing is owed. A message whose every copy
    came in — all of them, on an honest lossless ring — costs no timer
    and no work at its deadline; what is still owed when
    ``now + timeout`` passes comes out of :meth:`due` as the verdict.

    The owed set is **frozen at first sight** of each message: a node
    that joins the rings afterwards never owed us a copy (the paper's
    2T join quarantine serves the same purpose), and a node evicted
    meanwhile is pruned via :meth:`forget_node`.

    The caller applies two topology-race excusals around that frozen
    set (DESIGN.md §8): a freshly-established ring edge gets one
    timeout of grace before it is ever *added* to an owed set (messages
    can be in flight across the re-stitch, in which case the new
    predecessor forwarded them to its old successor), and a missing
    pair is only *accused* if the edge still exists at verdict time
    (otherwise the copy was legitimately routed to the predecessor's
    new successor).

    **Timers.** Deadlines are ``now + const`` with a non-decreasing
    ``now``, so arrival order is deadline order and one FIFO holds
    them; settled deadlines fall off its front. The monitor keeps no
    timer of its own: each first sight brings a *ticket* — the
    ``(time, seq)`` place in line a per-message timer armed at that
    moment would have taken
    (:meth:`repro.core.environment.NodeEnvironment.reserve`) — and the
    monitor says which ticket the caller's **one** timer per monitor
    must be armed at: :meth:`on_first_seen` when none is armed,
    :meth:`next_ticket` after each firing. That is the ticket at which
    one-timer-per-message code would have reached the oldest unsettled
    deadline, so every verdict keeps its place in the event order. A
    timer may find its message settled since it was armed; it then
    pops nothing and moves on to the next unsettled deadline.
    """

    __slots__ = ("timeout", "_deadlines", "_owed", "_tickets", "_armed")

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        #: (deadline, msg_id, ticket to fire at), oldest first, from the
        #: oldest unsettled message on.
        self._deadlines: Deque[Tuple[float, int, Ticket]] = deque()
        #: msg_id -> pairs that still owe a copy; never an empty set.
        self._owed: Dict[int, Set[CopyKey]] = {}
        #: Tickets of the latest first sights, settled or not, that a
        #: deadline armed now could still be reached from: a timer
        #: fires a hair (1e-9 s) after its own deadline, so first
        #: sights that close together share the earliest one's firing.
        self._tickets: Deque[Ticket] = deque()
        self._armed = False

    def __len__(self) -> int:
        """Deadlines held (the oldest unsettled one and all after it)."""
        return len(self._deadlines)

    def unsettled(self) -> int:
        """Messages some pair still owes a copy of."""
        return len(self._owed)

    def on_first_seen(
        self, msg_id: int, now: float, owed: "Set[CopyKey]", ticket: Ticket
    ) -> "Optional[Ticket]":
        """Start the completeness deadline of a newly-seen message.

        ``owed`` is adopted, not copied: the caller builds it for this
        call and lets go of it. Returns the ticket to arm the monitor's
        timer at, or ``None`` when a timer is already armed or nothing
        is owed.
        """
        deadline = now + self.timeout
        tickets = self._tickets
        tickets.append(ticket)
        while tickets[0][0] < deadline:
            tickets.popleft()
        if not owed:
            return None
        self._owed[msg_id] = owed
        fire_at = tickets[0]
        self._deadlines.append((deadline, msg_id, fire_at))
        if self._armed:
            return None
        self._armed = True
        return fire_at

    def on_copy(self, msg_id: int, from_key: CopyKey) -> None:
        """A copy of an already-seen message arrived: ``from_key`` no
        longer owes it."""
        owed = self._owed.get(msg_id)
        if owed is not None:
            owed.discard(from_key)
            if not owed:
                del self._owed[msg_id]
                self._shed_settled()

    def forget_node(self, node_id: int) -> None:
        """Stop expecting copies from an evicted or departed node."""
        settled = []
        for msg_id, owed in self._owed.items():
            owed -= {key for key in owed if key[0] == node_id}
            if not owed:
                settled.append(msg_id)
        for msg_id in settled:
            del self._owed[msg_id]
        self._shed_settled()

    def _shed_settled(self) -> None:
        deadlines = self._deadlines
        owed = self._owed
        while deadlines and deadlines[0][1] not in owed:
            deadlines.popleft()

    def due(self, now: float) -> "List[Tuple[int, Set[CopyKey]]]":
        """(msg_id, still-owed set) of every unsettled message whose
        deadline passed, oldest first; each comes out once."""
        ready: List[Tuple[int, Set[CopyKey]]] = []
        deadlines = self._deadlines
        owed = self._owed
        while deadlines and deadlines[0][0] <= now:
            msg_id = deadlines.popleft()[1]
            pairs = owed.pop(msg_id, None)
            if pairs is not None:
                ready.append((msg_id, pairs))
        self._shed_settled()
        return ready

    def next_ticket(self) -> "Optional[Ticket]":
        """Called when the monitor's timer has fired: the ticket to arm
        it at next (the oldest unsettled deadline's), or ``None`` —
        nothing is owed, and the next :meth:`on_first_seen` that owes
        something arms it again."""
        deadlines = self._deadlines
        self._armed = bool(deadlines)
        return deadlines[0][2] if deadlines else None

    @staticmethod
    def missing(state: BroadcastState, msg_id: int, expected: "Set[CopyKey]") -> Set[CopyKey]:
        """(Predecessor, ring) pairs that owed a copy and never sent one.

        At a verdict this is the cross-check of the owed set against
        the receipt records: a pair is accused only if both agree.
        """
        return state.missing_predecessors(msg_id, expected)

    @staticmethod
    def replaying(state: BroadcastState, msg_id: int) -> Set[CopyKey]:
        """(Predecessor, ring) pairs that sent duplicates (replay)."""
        return state.replaying_predecessors(msg_id)


# --------------------------------------------------------------------------
# Check 3 — group predecessors keep the constant rate
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RateVerdict:
    """A rate violation by one group-ring predecessor."""

    predecessor: int
    reason: str  # "rate-low" | "rate-high"
    count: int


class RateMonitor:
    """Sliding-window message counting per group predecessor.

    The constant-rate obligation makes noise mandatory (Lemma 6): a
    predecessor from whom *nothing* arrives for a full window is
    accused of ``rate-low``; one who floods beyond
    ``max_per_window`` is accused of ``rate-high`` (an opponent
    flooding to waste resources, Lemma 7).
    """

    __slots__ = ("window", "max_per_window", "_arrivals", "_tracked_since")

    def __init__(self, window: float, max_per_window: int) -> None:
        if window <= 0:
            raise ValueError("rate window must be positive")
        self.window = window
        self.max_per_window = max_per_window
        #: predecessor -> trailing-window arrival times. Typed arrays,
        #: not lists: every node keeps one window per group predecessor,
        #: and at 1024+ nodes per-float object overhead dominates.
        self._arrivals: Dict[int, "array[float]"] = {}
        self._tracked_since: Dict[int, float] = {}

    def track(self, predecessor: int, now: float) -> None:
        """Start watching a predecessor (on topology change)."""
        self._tracked_since.setdefault(predecessor, now)
        self._arrivals.setdefault(predecessor, array("d"))

    def untrack(self, predecessor: int) -> None:
        self._tracked_since.pop(predecessor, None)
        self._arrivals.pop(predecessor, None)

    def tracked(self) -> Set[int]:
        return set(self._tracked_since)

    def record(self, predecessor: int, now: float) -> None:
        """One message arrived from ``predecessor``."""
        if predecessor not in self._tracked_since:
            self.track(predecessor, now)
        self._arrivals[predecessor].append(now)
        self._trim(predecessor, now)

    def _trim(self, predecessor: int, now: float) -> None:
        horizon = now - self.window
        arrivals = self._arrivals[predecessor]
        keep_from = 0
        while keep_from < len(arrivals) and arrivals[keep_from] < horizon:
            keep_from += 1
        if keep_from:
            del arrivals[:keep_from]

    def check(self, now: float, max_per_window: "int | None" = None) -> "List[RateVerdict]":
        """Evaluate every tracked predecessor's window.

        ``max_per_window`` overrides the constructor default: a
        predecessor legitimately forwards *every* group broadcast, so
        the cap must scale with group size and the system rate (the
        node computes it from its current view).
        """
        cap = max_per_window if max_per_window is not None else self.max_per_window
        verdicts: List[RateVerdict] = []
        for predecessor, since in self._tracked_since.items():
            if now - since < self.window:
                continue  # not observed long enough to judge
            self._trim(predecessor, now)
            count = len(self._arrivals[predecessor])
            if count == 0:
                verdicts.append(RateVerdict(predecessor, "rate-low", 0))
            elif count > cap:
                verdicts.append(RateVerdict(predecessor, "rate-high", count))
        return verdicts
