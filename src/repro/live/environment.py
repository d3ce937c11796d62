"""The asyncio-backed :class:`~repro.core.environment.NodeEnvironment`.

Where :class:`repro.core.system.RacSystem` gives a node a simulated
clock, a simulated star network and ground-truth membership views, a
:class:`LiveEnvironment` gives the *same node object*:

* ``now`` — the event loop's monotonic wall clock, rebased to 0 at
  activation (so join quarantines and timer math match the simulator);
* ``schedule`` — ``loop.call_later`` timers (cancelled on shutdown);
* ``unicast`` — :func:`repro.core.wire.encode_message` frames handed to
  a per-peer :class:`PeerLink`, which writes them to its TCP connection
  then and there; its background task only connects, reconnects with
  exponential backoff and waits out a full transport buffer;
* ``domain_view`` / ``group_of`` — this node's own *replica* of the
  group and channel directories: the bootstrap roster folded in
  ascending node-id order, then an ordered ``log`` of joins, leaves and
  evictions. Replicas that apply the same events in the same order
  agree on every ring.

Only the node's replica rule (:mod:`repro.core.node`) evicts from its
replica; joins and leaves stay in-process, applied to every replica by
the cluster. A joiner or a restarted node copies an incumbent's
``roster`` and ``log``, as the paper's sponsor hands a joiner its view.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..core.config import RacConfig
from ..core.environment import Replica
from ..core.messages import DomainId
from ..core.wire import WireError, encode_message
from ..groups.channels import ChannelDirectory
from ..groups.manager import GroupDirectory
from ..overlay.membership import MembershipView
from ..simnet.stats import StatsRegistry
from ..simnet.trace import Tracer
from .directory import RosterEntry
from .framing import MAX_FRAME, encode_hello, read_hello, write_frame

__all__ = ["LiveEnvironment", "PeerLink"]

#: Reconnect backoff bounds (seconds). localhost connections normally
#: succeed first try; the backoff matters when a peer crashes or has
#: not opened its server socket yet. Each sleep is jittered to
#: uniform(0.5, 1.0)·backoff: when a restarted node orphans every
#: inbound link at once, lockstep retries would hammer its fresh server
#: socket in synchronized waves.
_BACKOFF_INITIAL = 0.05
_BACKOFF_MAX = 2.0
#: How long to wait for the peer's hello-ack before treating the
#: connection as dead. The backoff resets only after this round-trip —
#: a server that accepts but never answers must not look healthy.
_HELLO_ACK_TIMEOUT = 5.0
#: Per-link bound on queued frames; beyond it the oldest are dropped
#: (counted, never silent). A dead peer must not buffer unbounded RAM.
_MAX_QUEUED_FRAMES = 4096


class PeerLink:
    """One outbound TCP connection to a peer, with reconnect/backoff.

    ``send`` is the whole data path: a bounded enqueue, then ``_flush``
    writes what the established connection will take, in order, in the
    caller's own stack. The task connects, says hello, waits for the
    ack, and then only waits: for ``drain()`` when a flush stopped on a
    full transport buffer, or for a flush to find the connection lost.
    Frames accepted while the link is down or backed up go out in order
    after (re)connect; one handed to a connection that then resets is
    not resent (three ring copies cover it, as they cover a crashed peer).
    """

    def __init__(self, env: "LiveEnvironment", peer: RosterEntry) -> None:
        self.env = env
        self.peer = peer
        self._queue: "Deque[bytes]" = deque()
        self._wakeup = asyncio.Event()
        self._task: "Optional[asyncio.Task]" = None
        #: (reader, writer) from the hello-ack until the connection is given up.
        self._stream: "Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]" = None
        self._rng = random.Random((env.node_id << 20) ^ peer.node_id)
        self.closed = False
        self.queued_bytes = 0

    def send(self, frame: bytes) -> None:
        stats = self.env.stats
        if self.closed:
            stats.add("live_frames_dropped_closed")
            return
        if len(frame) > MAX_FRAME:
            # write_frame would refuse it after every reconnect, forever
            stats.add("live_frames_dropped_oversize")
            return
        if len(self._queue) >= _MAX_QUEUED_FRAMES:
            self.queued_bytes -= len(self._queue.popleft())
            stats.add("live_frames_dropped_backlog")
        self._queue.append(frame)
        self.queued_bytes += len(frame)
        self._flush()
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"link-{self.env.node_id:x}-{self.peer.node_id:x}"
            )

    def _flush(self) -> None:
        """Write queued frames while the link is established and the
        transport's buffer is under its own high-water mark; what stays
        queued wakes the task, to drain or to reconnect."""
        if self._stream is None:
            return
        reader, writer = self._stream
        transport, queue, stats = writer.transport, self._queue, self.env.stats
        if reader.at_eof():
            transport.abort()  # the peer, which sends nothing after its ack, hung up
        high_water = transport.get_write_buffer_limits()[1]
        while queue and not transport.is_closing() and transport.get_write_buffer_size() <= high_water:
            frame = queue.popleft()
            self.queued_bytes -= len(frame)
            write_frame(writer, frame)
            stats.add("live_frames_sent")
            stats.add("live_bytes_sent", len(frame) + 4)
        if queue:
            self._wakeup.set()

    def backlog_bytes(self) -> int:
        """Bytes accepted by ``send`` that the kernel does not have yet."""
        if self._stream is None:
            return self.queued_bytes
        return self.queued_bytes + self._stream[1].transport.get_write_buffer_size()

    async def _backoff_sleep(self, backoff: float) -> None:
        await asyncio.sleep(backoff * self._rng.uniform(0.5, 1.0))

    async def _run(self) -> None:
        backoff = _BACKOFF_INITIAL
        while not self.closed:
            # The backoff resets only once the peer proves it is really
            # serving by echoing a hello-ack. An accepting socket whose
            # process is wedged (or a listener backlog surviving a
            # crash) must not look healthy.
            if await self._connection():
                backoff = _BACKOFF_INITIAL
                continue
            self.env.stats.add("live_connect_retries")
            self.env.stats.add("live_reconnect_failures")
            await self._backoff_sleep(backoff)
            backoff = min(backoff * 2, _BACKOFF_MAX)

    async def _connection(self) -> bool:
        """One connection, from connect to its loss; whether the peer acked."""
        try:
            reader, writer = await asyncio.open_connection(self.peer.host, self.peer.port)
        except OSError:
            return False
        self.env.stats.add("live_connects")
        acked = False
        try:
            write_frame(writer, encode_hello(self.env.node_id))
            await writer.drain()
            peer_id = await asyncio.wait_for(read_hello(reader), _HELLO_ACK_TIMEOUT)
            if peer_id != self.peer.node_id:
                raise WireError(f"hello-ack from {peer_id:#x}, expected {self.peer.node_id:#x}")
            acked = True
            self.env.stats.add("live_hello_acks")
            self._stream = (reader, writer)
            while True:
                self._wakeup.clear()
                self._flush()
                if self._queue:
                    # A full buffer: wait for room. A lost connection:
                    # drain raises, the frames stay queued.
                    await writer.drain()
                else:
                    await self._wakeup.wait()
        except (ConnectionError, OSError, asyncio.TimeoutError, WireError):
            self.env.stats.add("live_link_resets")
        finally:
            self._stream = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return acked

    def close(self) -> None:
        """Stop the link; queued frames are abandoned."""
        self.closed = True
        if self._task is not None:
            self._task.cancel()  # its ``finally`` closes the connection
            self._task = None


class LiveEnvironment(Replica):
    """NodeEnvironment over asyncio timers, TCP links and a roster replica."""

    def __init__(
        self,
        node_id: int,
        config: RacConfig,
        roster: "List[RosterEntry]",
        *,
        on_delivered: "Optional[Callable[[int, bytes], None]]" = None,
        membership_log: "Optional[List[tuple]]" = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.stats = StatsRegistry()
        self.tracer = Tracer(False)
        self._on_delivered = on_delivered
        self._links: "Dict[int, PeerLink]" = {}
        self._timers: "Set[asyncio.TimerHandle]" = set()
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        #: Loop time of activation, where ``now`` is 0.
        self.epoch: "Optional[float]" = None
        self.errors: "List[BaseException]" = []
        #: Set by LiveNode so evictions can purge the node's monitors.
        self.node = None
        #: Optional chaos shim (repro.chaos.proxy.ChaosProxy): when set,
        #: every outbound frame passes through its ``filter`` before
        #: reaching the link. Sender-side shaping covers both directions
        #: of a pair, because every sender holds the shim.
        self.fault_shim = None

        # Splits cut at the median of whoever is present, so changes after
        # the bootstrap are an ordered ``log`` of ("join", RosterEntry) /
        # ("remove", node_id) records, not folded into the sorted roster.
        self.roster = sorted(roster, key=lambda e: e.node_id)
        self.log: "List[tuple]" = []
        self.directory = GroupDirectory(
            config.num_rings, smin=config.group_min, smax=config.group_max
        )
        self.channels = ChannelDirectory(self.directory)
        self.peers: "Dict[int, RosterEntry]" = {}
        self.evicted: "Dict[int, Dict]" = {}
        #: node id → env-clock time its join settled here. Bootstrap
        #: and replayed members are rated as having joined at the epoch
        #: (env clocks are rebased per replica, so an absolute join time
        #: cannot travel in the log; a late joiner therefore sees the
        #: incumbents as quarantine-cleared, which they are).
        self._joined_at: "Dict[int, float]" = {}
        for entry in self.roster:
            self.directory.add_node(entry.node_id, entry.id_key)
            self.peers[entry.node_id] = entry
            self._joined_at[entry.node_id] = 0.0
        self._bootstrapped = dict(self.directory.event_counts)
        for kind, value in membership_log or ():
            if kind == "join":
                self.apply_join(value)
                self._joined_at[value.node_id] = 0.0
            elif kind == "remove":
                self.apply_leave(value)
            else:
                raise ValueError(f"unknown membership record kind {kind!r}")

    # -- clock ----------------------------------------------------------------
    def start_clock(self) -> None:
        """Rebase ``now`` to 0 on the running loop; call at activation."""
        self._loop = asyncio.get_running_loop()
        self.epoch = self._loop.time()

    @property
    def now(self) -> float:
        if self._loop is None or self.epoch is None:
            return 0.0
        return self._loop.time() - self.epoch

    def schedule(self, delay: float, callback, *args) -> None:
        if self._loop is None:
            raise RuntimeError("start_clock() before scheduling")
        box: "List[asyncio.TimerHandle]" = []

        def _fire() -> None:
            if box:
                self._timers.discard(box[0])
            try:
                callback(*args)
            except Exception as exc:  # a node bug must not kill the loop
                self.errors.append(exc)
                self.stats.add("live_callback_errors")

        handle = self._loop.call_later(max(0.0, delay), _fire)
        box.append(handle)
        self._timers.add(handle)

    def reserve(self, delay: float) -> "Tuple[float, int]":
        # The loop orders timers by their due time alone.
        return (self.now + delay, 0)

    def schedule_reserved(self, ticket: "Tuple[float, int]", callback, *args) -> None:
        self.schedule(ticket[0] - self.now, callback, *args)

    # -- transport -------------------------------------------------------------
    def unicast(self, src: int, dst: int, payload, size_bytes: int) -> None:
        peer = self.peers.get(dst)
        if peer is None:
            self.stats.add("live_unicast_unknown_peer")
            return
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = PeerLink(self, peer)
        frame = encode_message(payload)
        if self.fault_shim is not None:
            self.fault_shim.filter(self.node_id, dst, frame, link.send)
        else:
            link.send(frame)

    def uplink_backlog_seconds(self, node_id: int) -> float:
        queued = sum(link.backlog_bytes() for link in self._links.values())
        return queued * 8 / self.config.link_bandwidth_bps

    # -- membership ------------------------------------------------------------
    #: Inherited, and bound here too: a per-layer profile wraps the live
    #: substrate's own lookups by class.
    domain_view = Replica.domain_view

    def send_interval_for(self, node_id: int) -> float:
        group = self.directory.group_of_node(node_id)
        return self.config.derived_send_interval(len(group))

    def usable_as_relay(self, node_id: int) -> bool:
        """The paper's 2T quarantine, per node: a member relays only
        once it has been in the view for ``2 * join_settle_time``.
        Bootstrap members share the epoch; dynamic joiners serve out
        their own quarantine from their join instant."""
        joined_at = self._joined_at.get(node_id)
        if joined_at is None:
            return False
        return self.now - joined_at >= 2 * self.config.join_settle_time

    # -- upcalls ---------------------------------------------------------------
    def on_delivered(self, node_id: int, payload: bytes) -> None:
        if self._on_delivered is not None:
            self._on_delivered(node_id, payload)

    def evict(
        self, accused: int, by: int, domain: DomainId, kind: str
    ) -> "Optional[Dict[DomainId, MembershipView]]":
        channels = super().evict(accused, by, domain, kind)
        if channels is not None:
            self.stats.add("evictions_applied")
        return channels

    def apply_join(self, entry: "RosterEntry") -> None:
        """Admit a dynamic joiner into this replica (idempotent).

        The channel cache is dropped so super-group topology re-derives
        against the new views (a split may have moved members). The
        joiner starts its own 2T quarantine now.
        """
        if entry.node_id in self.peers:
            return
        self.log.append(("join", entry))
        self.directory.add_node(entry.node_id, entry.id_key)
        self.peers[entry.node_id] = entry
        self._joined_at[entry.node_id] = self.now
        self.channels.invalidate()
        self.stats.add("live_joins_applied")

    def apply_leave(self, node_id: int) -> None:
        """Remove a gracefully departing node from this replica
        (idempotent). Same mechanics as an eviction minus the verdict:
        the departed node's monitor state is forgotten so its silence
        never reads as misbehaviour."""
        if node_id not in self.peers:
            return
        self._remove(node_id)
        self.stats.add("live_leaves_applied")

    def _remove(self, node_id: int) -> None:
        """Shared removal mechanics for leaves and evictions. A replica
        that removes its own node stops it: the node's timers would
        otherwise keep ticking against a directory that no longer
        holds it."""
        self.log.append(("remove", node_id))
        del self.peers[node_id]
        self._joined_at.pop(node_id, None)
        link = self._links.pop(node_id, None)
        if link is not None:
            link.close()
        self.directory.remove_node(node_id)
        self.channels.invalidate()
        if self.node is not None:
            if self.node.node_id == node_id:
                self.node.stop()
            else:
                self.node.on_evicted(node_id)

    def reconfigurations(self) -> "Dict[str, int]":
        """Directory events by kind since the bootstrap roster, replayed
        log included: the history this replica has been through."""
        counts, base = self.directory.event_counts, self._bootstrapped
        return {kind: n - base.get(kind, 0) for kind, n in counts.items() if n > base.get(kind, 0)}

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        for link in self._links.values():
            link.close()
        self._links.clear()
