"""Reliable, ordered per-pair delivery on top of the star network.

The paper's implementation note (Section IV-C, footnote 6): *"Our
implementation uses TCP, which ensures reliable delivery between pairs
of nodes."* RAC's misbehaviour detection leans on that: a missing
message from a predecessor is evidence of freeriding, not of loss.

On the original lossless :class:`~repro.simnet.network.StarNetwork`
the transport only had to reorder packets. With the fault-injection
layer (:mod:`repro.simnet.faults`) the network drops, delays and
black-holes packets, so :class:`ReliableTransport` is a real ARQ:

* every data segment carries a per-pair sequence number and is
  acknowledged individually by the receiver (ACKs ride the same lossy
  network);
* unacknowledged segments are retransmitted on a timer with
  exponential backoff, bounded by ``max_retries``; exhausting the
  budget fires the ``on_failure`` callback — the peer is *gone*, which
  is the protocol layer's cue, never a silent wedge;
* the retransmission timeout is Jacobson's estimator (smoothed RTT
  plus four mean deviations, clamped to ``[rto_min, rto_max]``) fed by
  timestamp echo (the TCP timestamps option): each transmission
  carries its send time and the ACK echoes it back, so *every* ACK —
  including one for a retransmission — yields an unambiguous RTT
  sample. Plain Karn-style sampling starves the estimator exactly when
  it matters: under queueing-induced timeouts most ACKs are for
  retransmitted segments, the RTO never learns the real RTT, and the
  spurious retransmissions feed the very congestion that caused them;
* the receiver suppresses duplicates (a lost ACK makes the sender
  retransmit an already-delivered segment) and re-ACKs them, and a
  hold-back queue releases segments strictly in per-pair send order.

The resulting contract is the one protocol code always assumed: every
``send`` between live, connected nodes is delivered exactly once, in
per-pair order — now *earned* rather than inherited from a lossless
substrate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .engine import ScheduledEvent
from .network import Packet, StarNetwork
from .stats import StatsRegistry

__all__ = ["Segment", "Ack", "ReliableTransport"]

Pair = Tuple[int, int]


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

    __slots__ = ("payload", "seqno", "size_bytes", "attempts", "timer")

    def __init__(self, payload: Any, seqno: int, size_bytes: int) -> None:
        self.payload = payload
        self.seqno = seqno
        self.size_bytes = size_bytes  # wire size including the transport header
        self.attempts = 0
        self.timer: "Optional[ScheduledEvent]" = None


class _SendState:
    """Sender-side state of one ordered pair: the next sequence number,
    the unacknowledged segments and the Jacobson estimator (``rto`` is
    the clamped timeout ``srtt`` and ``rttvar`` imply, refreshed with
    every sample)."""

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
    handler per node id, then call :meth:`send`. The transport adds a
    fixed per-message header size to model framing overhead; ACKs are
    header-only packets.
    """

    HEADER_BYTES = 40  # IP + TCP headers, rounded
    ACK_BYTES = 40  # a bare ACK is all header

    __slots__ = (
        "sim",
        "network",
        "stats",
        "rto_initial",
        "rto_min",
        "rto_max",
        "max_retries",
        "on_failure",
        "_handlers",
        "_senders",
        "_receivers",
        "segments_sent",
        "retransmits",
        "acks_sent",
        "duplicates",
        "messages_delivered",
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
        stats: "Optional[StatsRegistry]" = None,
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
        #: The per-segment tallies (``segments_sent``, ``acks_sent``,
        #: ``rtt_samples``, ``rtt_us_total``) are kept once, below; the
        #: registry reads them off the transport when it is read.
        self.stats = stats
        if stats is not None:
            stats.transport = self
        #: Called as ``on_failure(src, dst, payload)`` when a segment
        #: exhausts its retry budget — the peer is unreachable.
        self.on_failure = on_failure

        self._handlers: Dict[int, Callable[[int, Any], None]] = {}
        self._senders: Dict[Pair, _SendState] = {}
        self._receivers: Dict[Pair, _RecvState] = {}

        self.messages_delivered = 0
        self.segments_sent = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.duplicates = 0
        self.delivery_failures = 0
        self.rtt_samples = 0
        self.rtt_us_total = 0

    def _count(self, name: str, amount: int = 1) -> None:
        # For the rare paths (retransmits, duplicates, failures).
        if self.stats is not None:
            self.stats.add(name, amount)

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
        for stale duplicates and wedge the peer's hold-back queue.
        """
        self._handlers.pop(node_id, None)
        self.network.detach(node_id)
        for pair in [p for p in self._senders if node_id in p]:
            for out in self._senders.pop(pair).outstanding.values():
                if out.timer is not None:
                    out.timer.cancel()
        for pair in [p for p in self._receivers if node_id in p]:
            del self._receivers[pair]

    # -- sender side ---------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Send ``payload`` reliably from ``src`` to ``dst``."""
        pair = (src, dst)
        state = self._senders.get(pair)
        if state is None:
            state = self._senders[pair] = _SendState(self.rto_initial)
        seqno = state.next_seq
        state.next_seq = seqno + 1
        out = state.outstanding[seqno] = _Outstanding(payload, seqno, size_bytes + self.HEADER_BYTES)
        self.segments_sent += 1
        self._transmit(pair, state, out)

    def _transmit(self, pair: Pair, state: _SendState, out: _Outstanding) -> None:
        src, dst = pair
        network = self.network
        now = self.sim.now
        # The RTO policy is capped at rto_max, but the segment first
        # waits out the backlog ahead of it in the sender's *own*
        # uplink queue (knowable locally: it is the node's NIC queue) —
        # no ACK can possibly arrive before the packet has even left.
        # Arming the timer from enqueue time without that term turns
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
        out.timer = self.sim.schedule(own_queue + interval, self._on_timeout, pair, out.seqno)

    def _on_timeout(self, pair: Pair, seqno: int) -> None:
        state = self._senders.get(pair)
        out = state.outstanding.get(seqno) if state is not None else None
        if out is None:
            return  # acknowledged (or pair detached) before the timer fired
        src, dst = pair
        if not self.network.attached(src):
            del state.outstanding[seqno]
            return
        out.attempts += 1
        if out.attempts > self.max_retries:
            del state.outstanding[seqno]
            self.delivery_failures += 1
            self._count("transport_delivery_failures")
            if self.on_failure is not None:
                self.on_failure(src, dst, out.payload)
            return
        self.retransmits += 1
        self._count("transport_retransmits")
        self._transmit(pair, state, out)

    def _on_ack(self, pair: Pair, ack: Ack) -> None:
        """Settle the segment ``ack`` names on the data pair ``pair``."""
        state = self._senders.get(pair)
        out = state.outstanding.pop(ack.seqno, None) if state is not None else None
        if out is None:
            return  # duplicate ACK for an already-settled segment
        if out.timer is not None:
            out.timer.cancel()
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
        state.rto = min(self.rto_max, max(self.rto_min, srtt + 4 * rttvar))
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
        if type(segment) is Ack:
            # The ACK travels dst -> src, so the data pair is the reverse.
            self._on_ack((dst, src), segment)
            return
        if type(segment) is not Segment:
            raise TypeError("ReliableTransport received a raw packet")
        pair = (src, dst)
        seqno = segment.seqno
        # Every received segment is ACKed — including duplicates, whose
        # original ACK may be the very packet the network ate.
        self.acks_sent += 1
        self.network.send(dst, src, Ack(seqno, segment.ts), self.ACK_BYTES)
        state = self._receivers.get(pair)
        if state is None:
            state = self._receivers[pair] = _RecvState()
        expected = state.expected
        holdback = state.holdback
        if seqno < expected or seqno in holdback:
            self.duplicates += 1
            self._count("transport_duplicates")
            return
        holdback[seqno] = segment.payload
        handler = self._handlers.get(dst)
        while expected in holdback:
            payload = holdback.pop(expected)
            expected += 1
            state.expected = expected
            self.messages_delivered += 1
            if handler is not None:
                handler(src, payload)

    # -- introspection -------------------------------------------------------
    def in_flight(self, src: int, dst: int) -> int:
        """Number of unacknowledged segments from ``src`` to ``dst``."""
        state = self._senders.get((src, dst))
        return len(state.outstanding) if state is not None else 0
