"""The environment surface a :class:`~repro.core.node.RacNode` consumes.

A node never talks to a network, a clock or a directory directly: it
goes through the ``env`` object handed to it at construction. This
module pins that contract down as an explicit
:class:`NodeEnvironment` protocol so the node can run on *different
execution substrates* without changing a line:

* :class:`repro.core.system.RacSystem` — the discrete-event simulation
  (deterministic, the reproduction's measurement substrate);
* :class:`repro.live.environment.LiveEnvironment` — the asyncio
  runtime, where ``now`` is the wall clock, ``schedule`` is an event
  loop timer and ``unicast`` frames the message onto a real TCP
  connection (:mod:`repro.core.wire` codecs).

Timers come in two spellings. ``schedule`` arms one now.
``reserve`` + ``schedule_reserved`` split that in two — take the place
in line now, arm the timer later and only if it is still needed — for
deadlines that almost always settle before they expire (the
predecessor check: one reservation per first-seen message, one armed
timer per node and domain). On the simulator both spellings fire at
the same ``(time, seq)``, which is what lets the node drop the timers
it does not need without moving any event that remains.

Membership comes from a *replica* of the group and channel directories
(:class:`Replica`): the simulator keeps one for every node, a live node
keeps its own. ``evict`` is the one way a verdict changes it, called by
the node's replica rule (:mod:`repro.core.node`).

The protocol is ``runtime_checkable`` so tests can assert both
implementations actually satisfy it; unit tests stub it with a few
lines, exactly as before the extraction.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

from ..groups.channels import ChannelDirectory
from ..groups.manager import Group, GroupDirectory
from ..overlay.membership import MembershipView
from ..simnet.stats import StatsRegistry
from ..simnet.trace import Tracer
from .messages import DomainId, channel_domain

__all__ = ["NodeEnvironment", "Replica"]


@runtime_checkable
class NodeEnvironment(Protocol):
    """Everything a RAC node needs from its execution substrate.

    Implementations must provide a monotonically non-decreasing clock;
    ``schedule`` callbacks must fire on the same logical thread as
    message dispatch (nodes are single-threaded state machines and do
    no locking of their own).
    """

    #: Shared (or per-node) counter registry; nodes mirror every local
    #: counter into it so experiments aggregate with one name space.
    stats: StatsRegistry
    #: Structured event trace (cheap to disable).
    tracer: Tracer

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""
        ...

    def schedule(self, delay: float, callback, *args) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        ...

    def reserve(self, delay: float) -> "Tuple[float, int]":
        """Take, without arming anything, the place in line a
        ``schedule(delay, ...)`` call made now would take.

        The ticket is ``(fire time, tie-break)``, plain data the node
        may hold for as long as it likes or drop unused. The node's
        check 2 draws one per first-seen message and redeems almost
        none: a timer is only needed for a message some predecessor
        still owes a copy of. On the simulator the tie-break is the
        calendar sequence number, so redeeming a ticket replays the
        very ``(time, seq)`` an eager ``schedule`` would have had; a
        wall-clock substrate has no ties to break and may return any
        integer."""
        ...

    def schedule_reserved(self, ticket: "Tuple[float, int]", callback, *args) -> None:
        """Run ``callback(*args)`` at a ticket drawn by :meth:`reserve`.

        Each ticket is redeemed at most once, and not after its fire
        time has passed."""
        ...

    def unicast(self, src: int, dst: int, payload, size_bytes: int) -> None:
        """Send one protocol message to a peer, charged ``size_bytes``."""
        ...

    def group_holding(self, node_id: int) -> "Optional[Group]":
        """The group (id interval, members) holding ``node_id``, or None; groups split, never cache it."""
        ...

    def domain_view(self, domain: DomainId) -> "Optional[MembershipView]":
        """Membership view of a group or channel, or None if unknown."""
        ...

    def send_interval_for(self, node_id: int) -> float:
        """The node's origination interval (constant-rate obligation)."""
        ...

    def uplink_backlog_seconds(self, node_id: int) -> float:
        """Seconds of serialization queued on the node's uplink."""
        ...

    def usable_as_relay(self, node_id: int) -> bool:
        """Whether a peer may be picked as an onion relay (2T quarantine)."""
        ...

    def on_delivered(self, node_id: int, payload: bytes) -> None:
        """A node delivered an anonymous payload (metering hook)."""
        ...

    def evict(
        self, accused: int, by: int, domain: DomainId, kind: str
    ) -> "Optional[Dict[DomainId, MembershipView]]":
        """Remove ``accused`` from the node's replica, recording the
        verdict of ``by`` on ``kind`` evidence in ``domain``. Returns the
        channels of its group as they stood (what its notice floods), or
        None when the replica did not hold it."""
        ...


class Replica:
    """The membership half of :class:`NodeEnvironment` over a group
    ``directory`` and its ``channels``; ``evict`` records each verdict in
    ``evicted`` and leaves the removal to the substrate's ``_remove``."""

    directory: GroupDirectory
    channels: ChannelDirectory
    evicted: "Dict[int, Dict]"

    def group_of(self, node_id: int) -> int:
        return self.directory.group_of_node(node_id).gid

    def group_holding(self, node_id: int) -> "Optional[Group]":
        return self.directory.group_of_node(node_id) if node_id in self.directory else None

    def domain_view(self, domain: DomainId) -> "Optional[MembershipView]":
        kind, key = domain
        if kind == "group":
            group = self.directory.groups.get(key)
            return group.view if group is not None else None
        if kind == "channel":
            gid_a, gid_b = key
            if gid_a not in self.directory.groups or gid_b not in self.directory.groups:
                return None
            return self.channels.channel_view(gid_a, gid_b)
        raise ValueError(f"unknown domain kind {kind!r}")

    def evict(
        self, accused: int, by: int, domain: DomainId, kind: str
    ) -> "Optional[Dict[DomainId, MembershipView]]":
        group = self.group_holding(accused)
        if group is None:
            return None
        gid = group.gid
        channels = {
            channel_domain(gid, other): self.channels.channel_view(gid, other)
            for other in sorted(self.directory.groups)
            if other != gid
        }
        self.evicted[accused] = {"by": by, "domain": domain, "kind": kind, "at": self.now, "gid": gid}
        self._remove(accused)
        return channels
