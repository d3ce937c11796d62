"""Length-prefixed record framing over asyncio streams.

The wire format of one RAC TCP connection:

* one **hello** frame — the sender's 16-byte node id — immediately
  after connecting (TCP gives no peer identity; the protocol's
  predecessor checks need one);
* then a stream of **record** frames, each a
  :func:`repro.core.wire.encode_message` blob.

Every frame is ``>I`` length-prefixed, network byte order, matching the
conventions of :mod:`repro.core.wire`. Frames above :data:`MAX_FRAME`
are rejected before allocation — a mutated length prefix must not make
a node try to buffer 4 GiB.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Iterator

from ..core.wire import WireError

__all__ = [
    "MAX_FRAME",
    "encode_hello",
    "decode_hello",
    "write_frame",
    "read_frame",
    "read_hello",
    "split_frames",
]

_U32 = struct.Struct(">I")
_ID_LEN = 16

#: Upper bound on one frame's payload. The largest legitimate frame is
#: a Broadcast of one padded message (10 kB in the paper's config) plus
#: tens of bytes of header; 4 MiB leaves room for experiments with
#: bigger messages while bounding what a corrupted prefix can request.
MAX_FRAME = 4 * 1024 * 1024


def encode_hello(node_id: int) -> bytes:
    """The link-layer hello payload: the sender's 16-byte id."""
    if not 0 <= node_id < (1 << 128):
        raise WireError(f"node id out of range: {node_id}")
    return node_id.to_bytes(_ID_LEN, "big")


def decode_hello(payload: bytes) -> int:
    if len(payload) != _ID_LEN:
        raise WireError(f"hello frame must be {_ID_LEN} bytes, got {len(payload)}")
    return int.from_bytes(payload, "big")


def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue one length-prefixed frame on the writer (no drain).

    ``writer`` is anything with a transport's ``write``. Backpressure
    is the caller's: a ``PeerLink`` stops handing frames over at the
    transport's high-water mark, stream callers ``await drain()``.
    """
    if len(payload) > MAX_FRAME:
        raise WireError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    writer.write(_U32.pack(len(payload)) + payload)


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one frame; raises :class:`WireError` on an oversized length
    prefix and :class:`asyncio.IncompleteReadError` on EOF."""
    header = await reader.readexactly(_U32.size)
    (length,) = _U32.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"peer announced a {length}-byte frame (max {MAX_FRAME})")
    if length == 0:
        return b""
    return await reader.readexactly(length)


def split_frames(buffer: bytearray) -> "Iterator[bytes]":
    """Yield every complete frame at the head of ``buffer`` and cut them
    off it, leaving at most one partial frame: :func:`read_frame` for
    bytes already in hand. Raises :class:`WireError` at an oversized
    length prefix; the caller then drops the buffer and the connection."""
    offset, end = 0, len(buffer)
    while end - offset >= _U32.size:
        (length,) = _U32.unpack_from(buffer, offset)
        if length > MAX_FRAME:
            raise WireError(f"peer announced a {length}-byte frame (max {MAX_FRAME})")
        stop = offset + _U32.size + length
        if stop > end:
            break
        yield bytes(buffer[offset + _U32.size : stop])
        offset = stop
    del buffer[:offset]


async def read_hello(reader: asyncio.StreamReader) -> int:
    """Read and validate the connection-opening hello frame."""
    return decode_hello(await read_frame(reader))
