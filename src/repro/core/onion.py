"""Onion construction, padding and peeling (Sections IV-A and IV-C).

An anonymous message is wrapped in ``L + 1`` layers:

* the innermost layer is sealed to the destination's **pseudonym** key
  and contains the application payload;
* each of the ``L`` outer layers is sealed to one relay's **ID** key
  and contains a flag, an optional *channel marker* (only in the layer
  of the last relay, when the destination lives in another group: the
  group id the final broadcast must reach), and the next layer.

Every broadcast on the wire is padded to one fixed size (*"the sender
pads the message to reach a defined size [...] it makes it impossible
for opponent nodes to use the size of network packets to track the path
followed by a given message"*), and every relay re-pads after peeling.

The module is pure: no node state, no network. ``msg_id`` of each layer
is the hash of the sealed blob, so the sender can precompute the id of
every broadcast its onion will cause — that is what powers the relay
check (the sender *"keeps a copy of the various layers of the message
[...] It then expects to receive the messages corresponding to the
different layers before the expiration of a timer"*).
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..crypto.hashes import message_id
from ..crypto.keys import KeyPair, PublicKey, seal, sealed_overhead

__all__ = ["BuiltOnion", "PeelResult", "build_onion", "build_noise", "peel", "wrap_wire", "unwrap_wire", "onion_capacity"]

FLAG_RELAY = 0x52  # 'R'
FLAG_DELIVER = 0x44  # 'D'

_MARKER_LEN = 8
_LEN_PREFIX = struct.Struct(">I")
_NO_MARKER = 0

# Hoisted per-layer constants: building one onion used to allocate the
# one-byte flag prefix and re-pack the empty marker once per layer.
_RELAY_PREFIX = bytes([FLAG_RELAY])
_DELIVER_PREFIX = bytes([FLAG_DELIVER])
_NO_MARKER_BYTES = _NO_MARKER.to_bytes(_MARKER_LEN, "big")
_PACK_LEN = _LEN_PREFIX.pack


# --------------------------------------------------------------------------
# Wire padding
# --------------------------------------------------------------------------

def wrap_wire(blob: bytes, padded_size: int, rng: "random.Random | None" = None) -> bytes:
    """Length-prefix ``blob`` and pad with random bytes to ``padded_size``."""
    body_len = _LEN_PREFIX.size + len(blob)
    if body_len > padded_size:
        raise ValueError(f"blob of {len(blob)} bytes exceeds padded size {padded_size}")
    pad_len = padded_size - body_len
    if rng is None:
        padding = bytes(pad_len)
    else:
        padding = rng.getrandbits(8 * pad_len).to_bytes(pad_len, "big") if pad_len else b""
    return _LEN_PREFIX.pack(len(blob)) + blob + padding


def unwrap_wire(wire: bytes) -> bytes:
    """Strip the padding, returning the sealed blob."""
    if len(wire) < _LEN_PREFIX.size:
        raise ValueError("wire too short")
    (blob_len,) = _LEN_PREFIX.unpack_from(wire)
    if _LEN_PREFIX.size + blob_len > len(wire):
        raise ValueError("corrupt wire: declared blob exceeds wire size")
    return wire[_LEN_PREFIX.size : _LEN_PREFIX.size + blob_len]


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

@dataclass
class BuiltOnion:
    """A freshly built onion and the sender's monitoring material."""

    #: The padded wire the sender broadcasts first.
    first_wire: bytes
    #: ``msg_id`` of every broadcast the onion will cause, outermost
    #: first: layer 0 (sender's own), layers 1..L-1 (relays), then the
    #: destination blob (last relay). Length L + 1.
    layer_msg_ids: List[int]
    #: Channel marker carried to the last relay (destination group id),
    #: or ``None`` for intra-group traffic.
    marker_gid: Optional[int]


def onion_capacity(padded_size: int, num_relays: int, sample_key: PublicKey) -> int:
    """Maximum payload bytes that fit in an onion of ``num_relays`` layers."""
    overhead = sealed_overhead(sample_key)
    per_relay_layer = overhead + 1 + _MARKER_LEN + _LEN_PREFIX.size
    innermost = overhead + 1 + _LEN_PREFIX.size
    return padded_size - _LEN_PREFIX.size - num_relays * per_relay_layer - innermost


def build_onion(
    payload: bytes,
    relay_keys: Sequence[PublicKey],
    destination_key: PublicKey,
    padded_size: int,
    marker_gid: "Optional[int]" = None,
    rng: "random.Random | None" = None,
) -> BuiltOnion:
    """Build an onion through ``relay_keys`` (first hop first).

    ``marker_gid`` — the destination's group id — is embedded in the
    *last* relay's layer when the destination lives in another group;
    that relay will broadcast the innermost blob on the corresponding
    channel instead of in its own group.
    """
    if not relay_keys:
        raise ValueError("an onion needs at least one relay (L >= 1)")
    if rng is None:
        rng = random.Random()

    def _seed() -> int:
        return rng.getrandbits(62)

    # Innermost: the destination (pseudonym-key) layer.
    inner_plain = _DELIVER_PREFIX + _PACK_LEN(len(payload)) + payload
    blob = seal(destination_key, inner_plain, seed=_seed())
    layer_ids = [message_id(blob)]

    # Relay layers, last relay's first (it is the innermost of the L).
    last_index = len(relay_keys) - 1
    for index in range(last_index, -1, -1):
        if index == last_index and marker_gid is not None:
            marker_bytes = int(marker_gid).to_bytes(_MARKER_LEN, "big")
        else:
            marker_bytes = _NO_MARKER_BYTES
        content = _RELAY_PREFIX + marker_bytes + _PACK_LEN(len(blob)) + blob
        blob = seal(relay_keys[index], content, seed=_seed())
        layer_ids.append(message_id(blob))

    layer_ids.reverse()  # outermost first
    wire = wrap_wire(blob, padded_size, rng=rng)
    return BuiltOnion(first_wire=wire, layer_msg_ids=layer_ids, marker_gid=marker_gid)


def build_noise(padded_size: int, rng: random.Random) -> bytes:
    """A noise message: random bytes shaped exactly like a real onion.

    No key opens it, so every receiver treats it as an opaque broadcast
    to forward — indistinguishable (by construction here, by IND-CPA in
    a real deployment) from a genuine onion.
    """
    blob_len = max(64, padded_size // 2)
    blob = rng.getrandbits(8 * blob_len).to_bytes(blob_len, "big")
    return wrap_wire(blob, padded_size, rng=rng)


# --------------------------------------------------------------------------
# Peeling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeelResult:
    """Outcome of one node's attempt to decipher a broadcast.

    ``kind`` is one of:

    * ``"relay"`` — the node's ID key opened a layer: it must broadcast
      ``inner_wire`` (already re-padded) in its group, or on the
      channel towards ``channel_gid`` if that marker is set;
    * ``"deliver"`` — the node's pseudonym key opened the innermost
      layer: ``payload`` is the application message;
    * ``"opaque"`` — not for this node; forward-only.
    """

    kind: str
    inner_wire: Optional[bytes] = None
    inner_msg_id: Optional[int] = None
    channel_gid: Optional[int] = None
    payload: Optional[bytes] = None


#: Every miss answers with this one result; it is frozen, so sharing it
#: is safe.
_OPAQUE = PeelResult(kind="opaque")


def peel(
    wire: bytes,
    id_keypair: Optional[KeyPair],
    pseudonym_keypair: Optional[KeyPair],
    padded_size: int,
    rng: "random.Random | None" = None,
) -> PeelResult:
    """Try to decipher a broadcast with this node's two private keys.

    Mirrors Section IV-C's receive procedure: try the ID key first (am
    I a relay?), then the pseudonym key (am I the destination?), else
    the message is opaque. Nearly every trial misses, so each is a
    :meth:`KeyPair.open <repro.crypto.keys.KeyPair.open>`, which answers
    None instead of raising.
    """
    try:
        blob = unwrap_wire(wire)
    except ValueError:
        return _OPAQUE

    if id_keypair is not None:
        content = id_keypair.open(blob)
        if content is not None:
            return _parse_relay_layer(content, padded_size, rng)

    if pseudonym_keypair is not None:
        content = pseudonym_keypair.open(blob)
        if content is not None:
            return _parse_deliver_layer(content)

    return _OPAQUE


def _parse_relay_layer(content: bytes, padded_size: int, rng) -> PeelResult:
    if not content or content[0] != FLAG_RELAY:
        return _OPAQUE  # decipher fluke; not a layer
    offset = 1
    marker = int.from_bytes(content[offset : offset + _MARKER_LEN], "big")
    offset += _MARKER_LEN
    (inner_len,) = _LEN_PREFIX.unpack_from(content, offset)
    offset += _LEN_PREFIX.size
    inner_blob = content[offset : offset + inner_len]
    if len(inner_blob) != inner_len:
        return _OPAQUE
    return PeelResult(
        kind="relay",
        inner_wire=wrap_wire(inner_blob, padded_size, rng=rng),
        inner_msg_id=message_id(inner_blob),
        channel_gid=marker if marker != _NO_MARKER else None,
    )


def _parse_deliver_layer(content: bytes) -> PeelResult:
    if not content or content[0] != FLAG_DELIVER:
        return _OPAQUE
    (payload_len,) = _LEN_PREFIX.unpack_from(content, 1)
    payload = content[1 + _LEN_PREFIX.size : 1 + _LEN_PREFIX.size + payload_len]
    if len(payload) != payload_len:
        return _OPAQUE
    return PeelResult(kind="deliver", payload=payload)
