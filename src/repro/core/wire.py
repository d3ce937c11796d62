"""Binary wire codecs for the three messages RAC nodes send each other.

The simulator ships Python objects with declared sizes for speed, but a
real deployment frames bytes; this module provides the byte-level
encoding — so the declared sizes are honest (the node charges control
messages by their encoded size) and so the protocol could be lifted
onto real sockets without redesign.

Format conventions: network byte order, 16-byte node/message ids,
length-prefixed variable fields, one leading type tag byte.
"""

from __future__ import annotations

import struct
from typing import Union

from ..crypto.dh import GROUP_2048, GROUP_TEST
from ..crypto.keys import PublicKey
from .messages import Accusation, Broadcast, DomainId, EvictionNotice

__all__ = [
    "encode_message",
    "decode_message",
    "encoded_size",
    "encode_public_key",
    "decode_public_key",
    "broadcast_overhead",
    "verify_unicast_payload",
    "WireError",
]


class WireError(Exception):
    """Raised on malformed frames.

    This is the *only* exception :func:`decode_message` may raise on
    untrusted bytes: the live runtime feeds frames straight off TCP
    sockets into the decoder, and anything else (``struct.error``,
    ``IndexError``, ...) escaping would crash a node on a single
    mutated frame.
    """


#: The DH groups a decoded key may belong to.
_DH_GROUPS = {(g.prime, g.generator, g.exponent_bits): g for g in (GROUP_TEST, GROUP_2048)}


_TAG_BROADCAST = 1
_TAG_ACCUSATION = 2
_TAG_EVICTION_NOTICE = 8  # 3-7 tagged in-process records an older codec carried

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_ID_LEN = 16
#: A group Broadcast's whole header as the general path lays it out (tag,
#: domain tag, gid, msg id, ring index, blob length). Nearly every live
#: frame is one: both codecs try it in one call, then the general path.
_GROUP_BROADCAST = struct.Struct(">BBQ16sII")

_DOMAIN_GROUP = 0
_DOMAIN_CHANNEL = 1


def _put_id(value: int) -> bytes:
    if not 0 <= value < (1 << 128):
        raise WireError(f"id out of range: {value}")
    return value.to_bytes(_ID_LEN, "big")


def _put_bytes(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _put_str(text: str) -> bytes:
    return _put_bytes(text.encode("utf-8"))


def _put_domain(domain: DomainId) -> bytes:
    kind, key = domain
    if kind == "group":
        return bytes([_DOMAIN_GROUP]) + _U64.pack(key)
    if kind == "channel":
        return bytes([_DOMAIN_CHANNEL]) + _U64.pack(key[0]) + _U64.pack(key[1])
    raise WireError(f"unknown domain kind {kind!r}")


def _put_key(key: PublicKey) -> bytes:
    out = _put_str(key.backend) + _put_id(key.key_id)
    if key.backend == "dh":
        assert key.dh_value is not None and key.dh_group is not None
        value_len = (key.dh_group.prime.bit_length() + 7) // 8
        out += _put_bytes(key.dh_value.to_bytes(value_len, "big"))
        out += _put_bytes(key.dh_group.prime.to_bytes(value_len, "big"))
        out += _U32.pack(key.dh_group.generator)
        out += _U32.pack(key.dh_group.exponent_bits)
    return out


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise WireError("truncated frame")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(_U32.size))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(_U64.size))[0]

    def node_id(self) -> int:
        return int.from_bytes(self.take(_ID_LEN), "big")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 in frame: {exc}") from None

    def domain(self) -> DomainId:
        kind = self.u8()
        if kind == _DOMAIN_GROUP:
            return ("group", self.u64())
        if kind == _DOMAIN_CHANNEL:
            gid_a, gid_b = self.u64(), self.u64()
            # Only channel_domain()'s key: (g, g) is no channel, and
            # (b, a) would name a second state for channel (a, b).
            if not gid_a < gid_b:
                raise WireError(f"channel key ({gid_a}, {gid_b}) is not in canonical order")
            return ("channel", (gid_a, gid_b))
        raise WireError(f"unknown domain tag {kind}")

    def key(self) -> PublicKey:
        backend = self.text()
        key_id = self.node_id()
        if backend == "sim":
            return PublicKey("sim", key_id)
        if backend == "dh":
            value = int.from_bytes(self.blob(), "big")
            prime = int.from_bytes(self.blob(), "big")
            generator, exponent_bits = self.u32(), self.u32()
            # Only the groups this build defines: a peer-chosen prime or
            # exponent length would set what every sealer to the key
            # pays in time and memory.
            group = _DH_GROUPS.get((prime, generator, exponent_bits))
            if group is None:
                raise WireError("dh key in an unknown group")
            if not 2 <= value <= prime - 2:
                raise WireError("dh public value out of range")
            return PublicKey("dh", key_id, dh_value=value, dh_group=group)
        raise WireError(f"unknown key backend {backend!r}")

    def done(self) -> None:
        if self.offset != len(self.data):
            raise WireError("trailing bytes in frame")


WireMessage = Union[Broadcast, Accusation, EvictionNotice]


def encode_message(message: WireMessage) -> bytes:
    """Serialize a RAC wire message to bytes."""
    if type(message) is Broadcast and message.domain[0] == "group":
        try:
            return _GROUP_BROADCAST.pack(
                _TAG_BROADCAST, _DOMAIN_GROUP, message.domain[1],
                message.msg_id.to_bytes(_ID_LEN, "big"), message.ring_index, len(message.wire),
            ) + message.wire
        except (struct.error, OverflowError):
            pass  # a field out of range: the general path names it
    if isinstance(message, Broadcast):
        return (
            bytes([_TAG_BROADCAST])
            + _put_domain(message.domain)
            + _put_id(message.msg_id)
            + _U32.pack(message.ring_index)
            + _put_bytes(message.wire)
        )
    if isinstance(message, Accusation):
        out = (
            bytes([_TAG_ACCUSATION])
            + _put_id(message.accuser)
            + _put_id(message.accused)
            + _put_domain(message.domain)
            + _put_str(message.reason)
        )
        if message.msg_id is None:
            return out + bytes([0])
        return out + bytes([1]) + _put_id(message.msg_id)
    if isinstance(message, EvictionNotice):
        return (
            bytes([_TAG_EVICTION_NOTICE])
            + _put_id(message.accuser)
            + _put_id(message.accused)
            + _put_domain(message.domain)
            + _put_str(message.kind)
        )
    raise WireError(f"cannot encode {type(message).__name__}")


def decode_message(data: bytes) -> WireMessage:
    """Parse a frame produced by :func:`encode_message`.

    Raises :class:`WireError` — and nothing else — on malformed input:
    the decoder sits on the untrusted side of real sockets in the live
    runtime, so every low-level parsing failure is normalized here.
    """
    try:
        return _decode(data)
    except WireError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, struct.error) as exc:
        # Belt and braces: the readers above should already normalize
        # every malformed-input failure, but a decoder bug must corrupt
        # one frame, not crash a live node.
        raise WireError(f"malformed frame: {exc}") from None


def _decode(data: bytes) -> WireMessage:
    if not data:
        raise WireError("empty frame")
    header = _GROUP_BROADCAST.size
    if len(data) >= header:
        tag, kind, gid, msg_id, ring_index, length = _GROUP_BROADCAST.unpack_from(data)
        if tag == _TAG_BROADCAST and kind == _DOMAIN_GROUP and header + length == len(data):
            return Broadcast(("group", gid), int.from_bytes(msg_id, "big"), data[header:], ring_index)
    reader = _Reader(data)
    tag = reader.u8()
    if tag == _TAG_BROADCAST:
        domain = reader.domain()
        msg_id = reader.node_id()
        ring_index = reader.u32()
        wire = reader.blob()
        reader.done()
        return Broadcast(domain, msg_id, wire, ring_index)
    if tag == _TAG_ACCUSATION:
        accuser = reader.node_id()
        accused = reader.node_id()
        domain = reader.domain()
        reason = reader.text()
        has_msg = reader.u8()
        msg_id = reader.node_id() if has_msg else None
        reader.done()
        return Accusation(accuser, accused, domain, reason, msg_id)
    if tag == _TAG_EVICTION_NOTICE:
        accuser = reader.node_id()
        accused = reader.node_id()
        domain = reader.domain()
        kind = reader.text()
        reader.done()
        return EvictionNotice(accuser, accused, domain, kind)
    raise WireError(f"unknown frame tag {tag}")


def encoded_size(message: WireMessage) -> int:
    """Wire size of a message — what the simulator should charge."""
    return len(encode_message(message))


def encode_public_key(key: PublicKey) -> bytes:
    """Standalone public-key codec (bootstrap directory rosters)."""
    return _put_key(key)


def decode_public_key(data: bytes) -> PublicKey:
    """Parse a blob produced by :func:`encode_public_key`."""
    try:
        reader = _Reader(data)
        key = reader.key()
        reader.done()
        return key
    except WireError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, struct.error) as exc:
        raise WireError(f"malformed key blob: {exc}") from None


def broadcast_overhead(domain: DomainId) -> int:
    """Framing bytes a :class:`Broadcast` adds on top of its padded blob.

    Nodes charge the network ``len(wire)`` for a broadcast (the padded
    message size M of the paper's model); the encoded frame adds the
    tag, domain, msg id, ring index and length prefix on top. This is
    the exact gap ``wire_check`` expects between charged and encoded
    sizes.
    """
    return 1 + len(_put_domain(domain)) + _ID_LEN + _U32.size + _U32.size


def verify_unicast_payload(message: WireMessage, charged_size: int) -> None:
    """Debug check: the codecs round-trip and the charged size is honest.

    * ``decode(encode(m)) == m`` — any codec drift for a message the
      protocol actually sends fails loudly inside the run that sent it;
    * for a :class:`Broadcast`, the node charges the padded blob and
      the frame must add exactly :func:`broadcast_overhead`;
    * for control messages, the node charges :func:`encoded_size`
      itself, so charged and encoded sizes must match byte for byte.

    Enabled by ``RacConfig.wire_check``; raises :class:`WireError` on
    any mismatch.
    """
    encoded = encode_message(message)
    decoded = decode_message(encoded)
    if decoded != message:
        raise WireError(f"codec round-trip drift for {type(message).__name__}: {message!r}")
    if isinstance(message, Broadcast):
        expected = charged_size + broadcast_overhead(message.domain)
    else:
        expected = charged_size
    if len(encoded) != expected:
        raise WireError(
            f"size drift for {type(message).__name__}: charged {charged_size}, "
            f"encoded {len(encoded)}, expected {expected}"
        )
