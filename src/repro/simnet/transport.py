"""Reliable, ordered per-pair delivery on top of the star network.

The paper's implementation note (Section IV-C, footnote 6): *"Our
implementation uses TCP, which ensures reliable delivery between pairs
of nodes."* RAC's misbehaviour detection leans on that: a missing
message from a predecessor is evidence of freeriding, not of loss.

:class:`ReliableTransport` takes one of two paths, chosen once, at its
first :meth:`~ReliableTransport.send`, from what the network it was
given can do:

* **Direct**, when the network can never lose a packet: its injector
  is :attr:`~repro.simnet.faults.FaultInjector.faultless`, or it has
  none. Footnote 6 then holds by construction, so a segment is sent
  once: no retransmit ticket, no watch, no RTT sample and no ACK
  packet. The ACK the receiver's TCP would send is still paid for: its
  40 bytes occupy the receiver's uplink exactly as the ARQ's ACK would,
  with no event. (The reverse downlink is not charged: the ACK would
  reach it only once that uplink's backlog drains, and a
  :class:`~repro.simnet.network.Link` has one horizon, not a schedule
  with gaps.) Whether the star can *reorder* decides one thing only: on
  an :attr:`~repro.simnet.network.StarNetwork.overtaking_free` star a
  segment is the bare payload, handed up on arrival; on one with
  jitter or a WAN topology's pair delay (:data:`SEQUENCED`) it is
  ``(seqno, payload)``, released in per-pair send order by the ARQ's
  own hold-back queue. The choice is final: the injector is sealed,
  and a loss rate or fault window added later raises
  :class:`~repro.simnet.engine.SimulationError` — a segment in flight
  has no copy to resend.
* **ARQ** otherwise (loss, any fault window). With the fault-injection
  layer (:mod:`repro.simnet.faults`) the network drops, delays and
  black-holes packets, so this is a real ARQ:

  * every data segment carries a per-pair sequence number and is
    acknowledged individually by the receiver (ACKs ride the same lossy
    network);
  * unacknowledged segments are retransmitted after a timeout with
    exponential backoff, bounded by ``max_retries``; exhausting the
    budget fires the ``on_failure`` callback — the peer is *gone*,
    which is the protocol layer's cue, never a silent wedge. A
    transmission takes a *ticket*
    (:meth:`~repro.simnet.engine.Simulator.reserve`, the ``(time,
    seq)`` a per-segment timer would have had) instead of a calendar
    entry, and the transport keeps one armed entry, the *watch*, at its
    earliest live ticket: an ACK never touches the calendar, and a real
    timeout fires at exactly its ticket;
  * the retransmission timeout is Jacobson's estimator (smoothed RTT
    plus four mean deviations, clamped to ``[rto_min, rto_max]``) fed
    by timestamp echo (the TCP timestamps option): each transmission
    carries its send time and the ACK echoes it back, so *every* ACK —
    including one for a retransmission — yields an unambiguous RTT
    sample. Plain Karn-style sampling starves the estimator exactly
    when it matters: under queueing-induced timeouts most ACKs are for
    retransmitted segments, the RTO never learns the real RTT, and the
    spurious retransmissions feed the very congestion that caused them;
  * the receiver suppresses duplicates (a lost ACK makes the sender
    retransmit an already-delivered segment) and re-ACKs them, and the
    hold-back queue releases segments strictly in per-pair send order.

Either way the contract is the one protocol code always assumed: every
``send`` between live, connected nodes is delivered exactly once, in
per-pair order — on a lossy network *earned* by the ARQ rather than
inherited from the substrate.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from .network import Packet, StarNetwork

__all__ = ["Segment", "Ack", "ReliableTransport", "SEQUENCED"]

Pair = Tuple[int, int]
#: A reserved ``(time, seq)`` place in the calendar (see
#: :meth:`repro.simnet.engine.Simulator.reserve`).
Ticket = Tuple[float, int]

#: :attr:`ReliableTransport.direct` on a lossless star that can reorder:
#: the direct path, with a per-pair seqno and the hold-back queue.
SEQUENCED = "sequenced"


class Segment:
    """A transport-level data message: payload, per-pair seqno, and the
    timestamp of *this transmission* (each retransmission is a fresh
    :class:`Segment` so in-flight copies keep their own timestamps)."""

    __slots__ = ("seqno", "payload", "ts")

    def __init__(self, seqno: int, payload: Any, ts: float = 0.0) -> None:
        self.seqno = seqno
        self.payload = payload
        self.ts = ts

    def __repr__(self) -> str:
        return f"Segment(seqno={self.seqno!r}, payload={self.payload!r}, ts={self.ts!r})"


class Ack:
    """Acknowledgement of one data segment (selective, not cumulative).

    ``echo_ts`` echoes the acknowledged transmission's timestamp, which
    is what makes RTT measurable without retransmission ambiguity.
    """

    __slots__ = ("seqno", "echo_ts")

    def __init__(self, seqno: int, echo_ts: float = 0.0) -> None:
        self.seqno = seqno
        self.echo_ts = echo_ts

    def __repr__(self) -> str:
        return f"Ack(seqno={self.seqno!r}, echo_ts={self.echo_ts!r})"


class _Outstanding:
    """Sender-side state of one unacknowledged segment."""

    __slots__ = ("payload", "seqno", "size_bytes", "attempts", "ticket")

    def __init__(self, payload: Any, seqno: int, size_bytes: int) -> None:
        self.payload = payload
        self.seqno = seqno
        self.size_bytes = size_bytes  # wire size including the transport header
        self.attempts = 0
        #: The latest transmission's ticket: its timeout is live while
        #: this record is outstanding and holds that ticket.
        self.ticket: "Optional[Ticket]" = None


class _SendState:
    """Sender-side state of one ordered pair: the next sequence number,
    the unacknowledged segments and the Jacobson estimator (``rto`` is
    the clamped timeout ``srtt`` and ``rttvar`` imply, refreshed with
    every sample). The sequenced direct path uses the seqno alone."""

    __slots__ = ("next_seq", "outstanding", "srtt", "rttvar", "rto")

    def __init__(self, rto_initial: float) -> None:
        self.next_seq = 0
        self.outstanding: Dict[int, _Outstanding] = {}
        self.srtt: "Optional[float]" = None
        self.rttvar = 0.0
        self.rto = rto_initial


class _RecvState:
    """Receiver-side state of one ordered pair: the next sequence
    number to release and the out-of-order segments held back."""

    __slots__ = ("expected", "holdback")

    def __init__(self) -> None:
        self.expected = 0
        self.holdback: Dict[int, Any] = {}


class ReliableTransport:
    """Exactly-once, per-pair FIFO message delivery over a lossy network.

    One instance serves a whole simulation: protocol nodes register a
    handler per node id, then call :meth:`send`. A network that can
    lose a packet gets the ARQ; one that cannot gets the direct path,
    and of that, one that can reorder gets the seqno and the hold-back
    (the module docstring). The transport adds a fixed per-message
    header size to model framing overhead; ACKs are header-only packets
    (on the direct path, header-only charges). Its :attr:`TALLIES` are
    plain ints kept here and nowhere else; ``RacSystem.stats_report()``
    names them ``transport_*``.
    """

    HEADER_BYTES = 40  # IP + TCP headers, rounded
    ACK_BYTES = 40  # a bare ACK is all header
    TALLIES = (
        "segments_sent",
        "retransmits",
        "acks_sent",
        "duplicates",
        "delivery_failures",
        "rtt_samples",
        "rtt_us_total",
    )

    __slots__ = (
        "sim",
        "network",
        "rto_initial",
        "rto_min",
        "rto_max",
        "max_retries",
        "on_failure",
        "direct",
        "_handlers",
        "_senders",
        "_receivers",
        "_watch",
        "_armed",
        "_fresh",
        "_survivors",
        "segments_sent",
        "retransmits",
        "acks_sent",
        "duplicates",
        "delivery_failures",
        "rtt_samples",
        "rtt_us_total",
    )

    def __init__(
        self,
        network: StarNetwork,
        *,
        rto_initial: float = 0.05,
        rto_min: float = 0.01,
        rto_max: float = 2.0,
        max_retries: int = 8,
        on_failure: "Optional[Callable[[int, int, Any], None]]" = None,
    ) -> None:
        if not 0 < rto_min <= rto_initial <= rto_max:
            raise ValueError("need 0 < rto_min <= rto_initial <= rto_max")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.network = network
        self.sim = network.sim
        self.rto_initial = rto_initial
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.max_retries = max_retries
        #: Called as ``on_failure(src, dst, payload)`` when a segment
        #: exhausts its retry budget — the peer is unreachable.
        self.on_failure = on_failure
        #: The path, decided at the first :meth:`send` (see the module
        #: docstring): None until then, False for the ARQ, and for the
        #: direct path True on an overtaking-free star, :data:`SEQUENCED`
        #: on one that can reorder.
        self.direct: "Union[None, bool, str]" = None

        self._handlers: Dict[int, Callable[[int, Any], None]] = {}
        self._senders: Dict[Pair, _SendState] = {}
        self._receivers: Dict[Pair, _RecvState] = {}
        # Retransmit bookkeeping. A record is ``(ticket, pair, seqno)``;
        # it is live while ``_live`` says so, and dies lazily otherwise.
        #: Ticket of the watch, the entry that re-arms at the earliest
        #: live ticket when it fires; ``None`` when nothing is live.
        self._watch: "Optional[Ticket]" = None
        #: Tickets with a calendar entry still to fire (the watch, and
        #: any watch a smaller ticket since undercut).
        self._armed: "Set[Ticket]" = set()
        #: Records taken since the watch last fired, oldest first.
        self._fresh: "List[Tuple[Ticket, Pair, int]]" = []
        #: A heap of the records live when the watch last fired, pruned
        #: at its head only.
        self._survivors: "List[Tuple[Ticket, Pair, int]]" = []

        self.segments_sent = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.duplicates = 0
        self.delivery_failures = 0
        self.rtt_samples = 0
        self.rtt_us_total = 0

    # -- membership ----------------------------------------------------------
    def attach(self, node_id: int, handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(src, payload)`` and join the network."""
        self._handlers[node_id] = handler
        self.network.attach(node_id, self._on_packet)

    def detach(self, node_id: int) -> None:
        """Leave the network and drop every per-pair state of the node.

        Clearing both sender- and receiver-side state matters: a node
        that crashes and later re-attaches must start every pair at
        seqno 0 on both ends, or its fresh segments would be mistaken
        for stale duplicates and wedge the peer's hold-back queue. The
        dropped segments' tickets die with their records: a ticket is
        matched to its record, never to a ``(pair, seqno)`` the next
        incarnation reuses.
        """
        self._handlers.pop(node_id, None)
        self.network.detach(node_id)
        for pair in [p for p in self._senders if node_id in p]:
            del self._senders[pair]
        for pair in [p for p in self._receivers if node_id in p]:
            del self._receivers[pair]

    # -- sender side ---------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Send ``payload`` reliably from ``src`` to ``dst``."""
        direct = self.direct
        if direct is None:
            direct = self._choose_path()
        self.segments_sent += 1
        if direct is True:
            self.network.send(src, dst, payload, size_bytes + self.HEADER_BYTES)
            return
        pair = (src, dst)
        state = self._senders.get(pair)
        if state is None:
            state = self._senders[pair] = _SendState(self.rto_initial)
        seqno = state.next_seq
        state.next_seq = seqno + 1
        if direct:
            self.network.send(src, dst, (seqno, payload), size_bytes + self.HEADER_BYTES)
            return
        out = state.outstanding[seqno] = _Outstanding(payload, seqno, size_bytes + self.HEADER_BYTES)
        self._transmit(pair, state, out)

    def _choose_path(self) -> "Union[bool, str]":
        """Take the direct path if the network can never lose a packet,
        and seal its injector so that it never will; sequence it if the
        star can reorder."""
        network = self.network
        faults = network.faults
        direct: "Union[bool, str]" = False
        if faults is None or faults.faultless:
            if faults is not None:
                faults.sealed = True
            direct = True if network.overtaking_free else SEQUENCED
        self.direct = direct
        return direct

    def _transmit(self, pair: Pair, state: _SendState, out: _Outstanding) -> None:
        src, dst = pair
        network = self.network
        now = self.sim.now
        # The RTO policy is capped at rto_max, but the segment first
        # waits out the backlog ahead of it in the sender's *own*
        # uplink queue (knowable locally: it is the node's NIC queue) —
        # no ACK can possibly arrive before the packet has even left.
        # A deadline counted from enqueue time without that term turns
        # every local backlog into a spurious retransmission (which
        # then deepens the backlog).
        uplink = network.uplinks.get(src)
        own_queue = uplink.busy_until - now if uplink is not None else 0.0
        if own_queue < 0.0:
            own_queue = 0.0
        # A fresh Segment per transmission: earlier copies still in
        # flight must keep their own timestamps, or the echo would
        # misattribute their RTT to the latest retransmission.
        network.send(src, dst, Segment(out.seqno, out.payload, now), out.size_bytes)
        interval = state.rto * (2 ** out.attempts)
        if interval > self.rto_max:
            interval = self.rto_max
        ticket = out.ticket = self.sim.reserve(own_queue + interval)
        record = (ticket, pair, out.seqno)
        self._fresh.append(record)
        watch = self._watch
        if watch is None or ticket < watch:
            self._arm(*record)

    def _arm(self, ticket: Ticket, pair: Pair, seqno: int) -> None:
        """Make ``ticket`` the watch, inserting its entry unless it has one."""
        self._watch = ticket
        armed = self._armed
        if ticket not in armed:
            armed.add(ticket)
            self.sim.schedule_reserved(ticket, self._on_timeout, ticket, pair, seqno)

    def _live(self, ticket: Ticket, pair: Pair, seqno: int) -> bool:
        """Whether ``ticket`` is the pending timeout of an outstanding
        segment. The ticket decides: ``(pair, seqno)`` only finds the
        candidate, which a crash-restart may have replaced by a fresh
        segment under the same seqno and a later ticket."""
        state = self._senders.get(pair)
        if state is None:
            return False
        out = state.outstanding.get(seqno)
        return out is not None and out.ticket == ticket

    def _on_timeout(self, ticket: Ticket, pair: Pair, seqno: int) -> None:
        """An armed ticket's instant: time the segment out if the ticket
        is still live, then, if this entry is the watch, re-arm it."""
        self._armed.discard(ticket)
        if self._live(ticket, pair, seqno):
            self._time_out(pair, seqno)
        if ticket == self._watch:
            self._rewatch()

    def _time_out(self, pair: Pair, seqno: int) -> None:
        state = self._senders[pair]
        out = state.outstanding[seqno]
        src, dst = pair
        if not self.network.attached(src):
            del state.outstanding[seqno]
            return
        out.attempts += 1
        if out.attempts > self.max_retries:
            del state.outstanding[seqno]
            self.delivery_failures += 1
            if self.on_failure is not None:
                self.on_failure(src, dst, out.payload)
            return
        self.retransmits += 1
        self._transmit(pair, state, out)

    def _rewatch(self) -> None:
        """Arm the watch at the earliest live ticket, or disarm it.

        Each record taken since the last firing is examined once here;
        only the live ones join the survivors heap, whose dead head
        records are dropped as they surface.
        """
        survivors = self._survivors
        live = self._live
        fresh = self._fresh
        for record in fresh:
            if live(*record):
                heappush(survivors, record)
        fresh.clear()
        while survivors:
            record = survivors[0]
            if live(*record):
                self._arm(*record)
                return
            heappop(survivors)
        self._watch = None

    def _on_ack(self, pair: Pair, ack: Ack) -> None:
        """Settle the segment ``ack`` names on the data pair ``pair``."""
        state = self._senders.get(pair)
        out = state.outstanding.pop(ack.seqno, None) if state is not None else None
        if out is None:
            return  # duplicate ACK for an already-settled segment
        # The echoed timestamp names the exact transmission being
        # acknowledged, so the sample is valid even for retransmits.
        # Jacobson & Karn: smoothed RTT plus four mean deviations.
        rtt = self.sim.now - ack.echo_ts
        srtt = state.srtt
        if srtt is None:
            srtt = rtt
            rttvar = rtt / 2
        else:
            rttvar = 0.75 * state.rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        state.srtt = srtt
        state.rttvar = rttvar
        rto = srtt + 4 * rttvar
        if rto < self.rto_min:
            rto = self.rto_min
        elif rto > self.rto_max:
            rto = self.rto_max
        state.rto = rto
        self.rtt_samples += 1
        self.rtt_us_total += int(rtt * 1e6)

    def srtt(self, src: int, dst: int) -> "Optional[float]":
        """Smoothed RTT estimate for the pair, None before any sample."""
        state = self._senders.get((src, dst))
        return state.srtt if state is not None else None

    def rto(self, src: int, dst: int) -> float:
        """Current retransmission timeout for the pair."""
        state = self._senders.get((src, dst))
        return state.rto if state is not None else self.rto_initial

    # -- receiver side -------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        segment = packet.payload
        src = packet.src
        dst = packet.dst
        direct = self.direct
        if direct:
            # The ACK's bytes, and nothing else of it (module docstring).
            self.acks_sent += 1
            self.network.uplinks[dst].occupy(self.ACK_BYTES)
            if direct is True:
                handler = self._handlers.get(dst)
                if handler is not None:
                    handler(src, segment)
                return
            seqno, payload = segment
            self._release(src, dst, seqno, payload)
            return
        if type(segment) is Ack:
            # The ACK travels dst -> src, so the data pair is the reverse.
            self._on_ack((dst, src), segment)
            return
        if type(segment) is not Segment:
            raise TypeError("ReliableTransport received a raw packet")
        seqno = segment.seqno
        # Every received segment is ACKed — including duplicates, whose
        # original ACK may be the very packet the network ate.
        self.acks_sent += 1
        self.network.send(dst, src, Ack(seqno, segment.ts), self.ACK_BYTES)
        self._release(src, dst, seqno, segment.payload)

    def _release(self, src: int, dst: int, seqno: int, payload: Any) -> None:
        """Hand ``payload`` up in per-pair send order: at once, with the
        held-back segments it unblocks, if it is the next one; held back
        if it is early; counted and dropped if it is a duplicate."""
        pair = (src, dst)
        state = self._receivers.get(pair)
        if state is None:
            state = self._receivers[pair] = _RecvState()
        expected = state.expected
        if seqno != expected:
            holdback = state.holdback
            if seqno < expected or seqno in holdback:
                self.duplicates += 1
            else:
                holdback[seqno] = payload
            return
        # In sequence: the handler gets it without a hold-back round trip.
        expected += 1
        state.expected = expected
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, payload)
        holdback = state.holdback
        while holdback and expected in holdback:
            payload = holdback.pop(expected)
            expected += 1
            state.expected = expected
            if handler is not None:
                handler(src, payload)

    # -- introspection -------------------------------------------------------
    def in_flight(self, src: int, dst: int) -> int:
        """Number of unacknowledged segments from ``src`` to ``dst``."""
        state = self._senders.get((src, dst))
        return len(state.outstanding) if state is not None else 0
