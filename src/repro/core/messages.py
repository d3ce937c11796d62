"""Wire messages exchanged by RAC nodes.

The data plane is a single message type — :class:`Broadcast`, a padded
onion blob flooding the rings of one *domain* (a group or a channel).
Everything else is control plane: join handshake, accusations,
blacklist shares and eviction notices.

Domains are identified by :class:`DomainId`: either ``("group", gid)``
or ``("channel", (gid_a, gid_b))`` with the pair ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "DomainId",
    "group_domain",
    "channel_domain",
    "Broadcast",
    "JoinRequest",
    "JoinAnnounce",
    "ReadyMessage",
    "Accusation",
    "BlacklistShare",
    "EvictionNotice",
]


DomainId = Tuple[str, Union[int, Tuple[int, int]]]


def group_domain(gid: int) -> DomainId:
    """Domain id of group ``gid``'s broadcast rings."""
    return ("group", gid)


def channel_domain(gid_a: int, gid_b: int) -> DomainId:
    """Domain id of the channel between two groups (order-free)."""
    if gid_a == gid_b:
        raise ValueError("a channel joins two distinct groups")
    pair = (gid_a, gid_b) if gid_a < gid_b else (gid_b, gid_a)
    return ("channel", pair)


@dataclass(frozen=True, slots=True)
class Broadcast:
    """One padded onion blob in flight on the rings of ``domain``.

    ``msg_id`` is the hash of the (unpadded) sealed blob, so the sender
    of an onion can predict the ids of every layer's broadcast and run
    the relay check of Section IV-C.
    """

    domain: DomainId
    msg_id: int
    wire: bytes
    #: Ring the copy travels on; receivers verify the sender is their
    #: predecessor on that ring.
    ring_index: int


@dataclass(frozen=True)
class JoinRequest:
    """``n`` asks sponsor ``x`` to join (carries the puzzle solution)."""

    node_id: int
    key_id: int
    puzzle_vector: int
    id_public_key: object  # repro.crypto.keys.PublicKey


@dataclass(frozen=True)
class JoinAnnounce:
    """The sponsor's anonymous broadcast of a JOIN to the target group."""

    request: JoinRequest
    sponsor: int


@dataclass(frozen=True)
class ReadyMessage:
    """Sponsor → joiner: the group has been informed (after period T)."""

    node_id: int


@dataclass(frozen=True)
class Accusation:
    """A clear-text predecessor accusation, broadcast in a domain.

    ``reason`` is one of ``"missing-copy"``, ``"replay"``,
    ``"rate-low"``, ``"rate-high"`` — the three checks of Section IV-C
    (replay and missing-copy are both instances of check 2).
    """

    accuser: int
    accused: int
    domain: DomainId
    reason: str
    msg_id: Optional[int] = None


@dataclass(frozen=True)
class BlacklistShare:
    """One member's relay blacklist, output by the anonymous shuffle.

    Carries no accuser identity — that is the whole point of shuffling.
    """

    group_gid: int
    accused: Tuple[int, ...]


@dataclass(frozen=True)
class EvictionNotice:
    """Group → channels: 'this node was evicted' (f+1 copies needed)."""

    evicted: int
    from_gid: int
    notifier: int
