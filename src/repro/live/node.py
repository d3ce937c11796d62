"""One live RAC node: TCP server + state machine + environment.

A :class:`LiveNode` owns

* a listening TCP socket (inbound broadcasts, accusations and eviction
  notices from ring predecessors),
* the :class:`repro.core.node.RacNode` state machine — the *same class*
  the simulator runs, unchanged,
* its :class:`repro.live.environment.LiveEnvironment`.

Inbound connections open with a hello frame naming the sender, which
is answered with a hello-ack; every following frame is decoded with
:func:`repro.core.wire.decode_message` and dispatched into the state
machine from inside ``data_received`` — the bytes are parsed where they
arrive, with no task or future per frame. Malformed records and
broadcasts on a ring index past ``num_rings`` increment
``live_frames_rejected`` and are skipped — framing keeps the stream in
sync, so one corrupted record never poisons the connection; a malformed
hello or a length prefix above ``MAX_FRAME`` aborts it
(``live_inbound_rejected``).
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, List, Optional, Set

from ..core.config import RacConfig
from ..core.identity import NodeMaterial
from ..core.messages import Broadcast
from ..core.node import RacNode
from ..core.wire import WireError, decode_message
from ..groups.partition import directory_digest
from .directory import DirectoryClient, RosterEntry
from .environment import LiveEnvironment
from .framing import decode_hello, encode_hello, split_frames, write_frame

__all__ = ["LiveNode"]

class _InboundLink(asyncio.Protocol):
    """One accepted connection: a hello, then records, parsed as they arrive."""

    def __init__(self, node: "LiveNode") -> None:
        self.node = node
        self.transport: "Optional[asyncio.Transport]" = None
        self.src: "Optional[int]" = None
        self.buffer = bytearray()  # never more than one partial frame

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.node._inbound.add(transport)

    def connection_lost(self, exc) -> None:
        self.node._inbound.discard(self.transport)
        self.transport = None

    def data_received(self, data: bytes) -> None:
        if self.transport is None:
            return  # rejected: whatever the transport still delivers is not read
        self.buffer += data
        try:
            for frame in split_frames(self.buffer):
                if self.src is not None:
                    self.node._dispatch(self.src, frame)
                    continue
                self.src = decode_hello(frame)
                # Hello-ack: the sender's link resets its reconnect
                # backoff only on this round-trip, not on a bare accept.
                write_frame(self.transport, encode_hello(self.node.node_id))
        except WireError:
            # A bad hello or length prefix: nothing after it can be
            # trusted. The sender's link reconnects if it cares.
            if self.node.env is not None:
                self.node.env.stats.add("live_inbound_rejected")
            self.buffer.clear()
            self.transport.abort()
            self.connection_lost(None)


class LiveNode:
    """Hosts one RAC participant on the event loop."""

    def __init__(
        self,
        material: NodeMaterial,
        config: RacConfig,
        directory_host: str,
        directory_port: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        incarnation: int = 0,
        on_delivered: "Optional[Callable[[int, bytes], None]]" = None,
    ) -> None:
        self.material = material
        self.config = config
        self.host = host
        self._requested_port = port
        self.port: "Optional[int]" = None
        #: Restart generation. The node RNG is salted with it so a
        #: restarted incarnation never replays its predecessor's message
        #: ids — peers holding pre-crash broadcast state would read the
        #: repeats as "replay" misbehaviour and evict an honest node.
        self.incarnation = incarnation
        self._client = DirectoryClient(directory_host, directory_port)
        self._on_delivered = on_delivered

        self._server: "Optional[asyncio.AbstractServer]" = None
        self._inbound: "Set[asyncio.BaseTransport]" = set()
        self.env: "Optional[LiveEnvironment]" = None
        self.rac: "Optional[RacNode]" = None
        self.killed = False

    @property
    def node_id(self) -> int:
        return self.material.node_id

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Open the server socket and register with the directory."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _InboundLink(self), self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        await self._client.register(self.roster_entry())

    def roster_entry(self) -> RosterEntry:
        if self.port is None:
            raise RuntimeError("start() the node before building its roster entry")
        return RosterEntry(
            node_id=self.node_id,
            host=self.host,
            port=self.port,
            id_key=self.material.id_keypair.public,
            pseudonym_key=self.material.pseudonym_keypair.public,
        )

    async def activate(
        self,
        count: int,
        roster: "Optional[List[RosterEntry]]" = None,
        *,
        membership_log: "Optional[list]" = None,
    ) -> None:
        """Wait for the full roster, build the environment, start the
        origination loop. ``roster`` short-circuits the directory wait
        when the caller (an in-process cluster) already holds it; a
        joiner or a restarted node passes an incumbent's bootstrap
        roster and ``membership_log`` so its replica copies the
        incumbent's."""
        if roster is None:
            roster = await self._client.wait_roster(count)
        self.env = LiveEnvironment(
            self.node_id,
            self.config,
            roster,
            on_delivered=self._on_delivered,
            membership_log=membership_log,
        )
        self.rac = RacNode(
            self.node_id,
            self.config,
            self.env,
            self.material.id_keypair,
            self.material.pseudonym_keypair,
            rng=random.Random(
                self.material.node_seed ^ (self.incarnation * 0x9E3779B97F4A7C15)
            ),
        )
        self.env.node = self.rac
        self.env.start_clock()
        self.rac.start()

    async def shutdown(self) -> None:
        """Graceful stop: halt the loop, cancel timers, close sockets."""
        if self.rac is not None:
            self.rac.stop()
        if self.env is not None:
            self.env.close()
        if self._server is not None:
            self._server.close()
            self._drop_inbound()
            await self._server.wait_closed()
            self._server = None

    def _drop_inbound(self) -> None:
        """Abort accepted connections: peers see a reset."""
        for transport in list(self._inbound):
            transport.abort()
        self._inbound.clear()

    def kill(self) -> None:
        """Abrupt crash: everything torn down mid-flight, no goodbyes.

        Used by fault tests — peers observe reset connections and a
        silent ring member, exactly what a crashed process looks like.
        """
        self.killed = True
        if self.rac is not None:
            self.rac.stop()
        if self.env is not None:
            self.env.close()
        if self._server is not None:
            self._server.close()
            self._server = None
        self._drop_inbound()

    # -- inbound ---------------------------------------------------------------
    def _dispatch(self, src: int, frame: bytes) -> None:
        if self.env is None or self.rac is None:
            return  # frames racing ahead of activation are dropped
        try:
            message = decode_message(frame)
        except WireError:
            self.env.stats.add("live_frames_rejected")
            return
        if type(message) is Broadcast and message.ring_index >= self.config.num_rings:
            # Well-formed bytes naming a ring no domain has: the node's
            # ring lookup would raise on it.
            self.env.stats.add("live_frames_rejected")
            return
        self.env.stats.add("live_frames_received")
        self.env.stats.add("live_bytes_received", len(frame) + 4)
        try:
            self.rac.on_message(src, message)
        except Exception as exc:  # a node bug must not kill the reader
            self.env.errors.append(exc)
            self.env.stats.add("live_dispatch_errors")

    def send(self, destination: NodeMaterial, payload: bytes) -> bool:
        """Queue an anonymous message to ``destination``; False while this
        node is not running or its replica does not hold the destination."""
        if self.rac is None or not self.rac.active or self.env.group_holding(destination.node_id) is None:
            return False
        gid = self.env.group_of(destination.node_id)
        return self.rac.queue_message(destination.pseudonym_keypair.public, gid, payload)

    # -- reporting -------------------------------------------------------------
    def counters(self) -> "Dict[str, int]":
        return self.env.stats.as_dict() if self.env is not None else {}

    def delivered(self) -> "List[bytes]":
        return list(self.rac.delivered) if self.rac is not None else []

    def report(self) -> "Dict[str, Any]":
        """This incarnation's record, as JSON data: deliveries on its
        clock (``epoch`` is the loop time that clock started at),
        counters, blacklist, eviction records, reconfigurations,
        directory digest and invariant check, errors. Take it before
        :meth:`shutdown`: a stopped node is no longer ``active``."""
        env, rac = self.env, self.rac
        try:
            env.directory.check_invariants()
            broken = None
        except AssertionError as exc:
            broken = str(exc)
        return {
            "node_id": self.node_id,
            "epoch": env.epoch,
            "running": not self.killed,
            "active": rac.active,
            "delivered": [[at, payload.hex()] for at, payload in zip(rac.delivered_at, rac.delivered)],
            "counters": self.counters(),
            "blacklist": sorted(rac.blacklisted()),
            "evicted": [[accused, record] for accused, record in env.evicted.items()],
            "reconfigurations": env.reconfigurations(),
            "digest": directory_digest(env.directory),
            "directory_error": broken,
            "errors": [f"node {self.node_id:#x}: {e!r}" for e in env.errors],
        }
