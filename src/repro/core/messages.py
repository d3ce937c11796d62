"""Wire messages exchanged by RAC nodes.

Nodes send each other three messages: :class:`Broadcast`, a padded onion
blob flooding the rings of one *domain* (a group or a channel),
:class:`Accusation`, a clear predecessor accusation, and
:class:`EvictionNotice`. The join handshake, READY and the blacklist
shuffle run in-process (DESIGN.md §1); :class:`JoinRequest` is the
record the in-process join hands its verifiers, not a wire frame.

Domains are identified by :class:`DomainId`: either ``("group", gid)``
or ``("channel", (gid_a, gid_b))`` with ``gid_a < gid_b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

__all__ = [
    "DomainId",
    "group_domain",
    "channel_domain",
    "Broadcast",
    "JoinRequest",
    "Accusation",
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


class Broadcast(NamedTuple):
    """One padded onion blob in flight on the rings of ``domain``.

    ``msg_id`` is the hash of the (unpadded) sealed blob, so the sender
    of an onion can predict the ids of every layer's broadcast and run
    the relay check of Section IV-C.

    A node builds one per ring copy, so it is a named tuple: immutable,
    hashed and compared by value, and cheap to build.
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
class EvictionNotice:
    """``accuser`` removed ``accused`` on its own ``kind`` of evidence
    (``"predecessor"``, ``"rate-high"`` or ``"relay"``); flooded over the
    channel ``domain`` of the accused's group (§IV-C: the group "notifies
    every channel it belonged to")."""

    accuser: int
    accused: int
    domain: DomainId
    kind: str
