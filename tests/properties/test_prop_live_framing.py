"""The inbound parser of a live node against the framing reference.

``repro.live.node._InboundLink.data_received`` walks ``>I``-prefixed
frames out of whatever chunks TCP hands it; ``framing.read_frame`` over
a ``StreamReader`` is the reference it replaced on that path (and still
serves the directory, pub/sub and the outbound hello-ack). Fed the same
bytes cut at the same places, the two must see the same frames.
"""

import asyncio
import random
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.core.wire import WireError
from repro.live.framing import MAX_FRAME, decode_hello, encode_hello, read_frame
from repro.live.node import _InboundLink
from repro.simnet.stats import StatsRegistry

NODE_ID = 0xA11CE
PEER_ID = 0xB0B


class _Node:
    """What an inbound connection touches of its LiveNode."""

    node_id = NODE_ID

    def __init__(self):
        self._inbound = set()
        self.env = SimpleNamespace(stats=StatsRegistry())
        self.dispatched = []

    def _dispatch(self, src, frame):
        self.dispatched.append((src, frame))


class _Transport:
    def __init__(self):
        self.written = b""
        self.aborted = False

    def write(self, data):
        self.written += data

    def abort(self):
        self.aborted = True


def _connection():
    node, transport = _Node(), _Transport()
    link = _InboundLink(node)
    link.connection_made(transport)
    return node, transport, link


def _framed(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def _chunked(stream: bytes, sizes):
    """``stream`` cut into chunks of the given sizes, cycled."""
    chunks, offset, turn = [], 0, 0
    while offset < len(stream):
        size = sizes[turn % len(sizes)]
        chunks.append(stream[offset : offset + size])
        offset += size
        turn += 1
    return chunks


async def _reference(chunks):
    """The frames a ``read_frame`` loop yields for the same bytes, and
    what stopped it (EOF mid-frame or an oversized prefix)."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    frames = []
    try:
        while True:
            frames.append(await read_frame(reader))
    except (asyncio.IncompleteReadError, WireError) as stop:
        return frames, stop


# 0-5,000-byte frames from a few bytes of entropy each: forty of them
# drawn byte by byte would overrun hypothesis' per-example budget
payloads = st.builds(
    lambda size, seed: random.Random(seed).randbytes(size),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=2**32),
)
frame_lists = st.lists(payloads, min_size=0, max_size=40)
chunk_sizes = st.one_of(
    st.just([1]),
    st.lists(st.integers(min_value=1, max_value=16384), min_size=1, max_size=30),
)
ACK = _framed(encode_hello(NODE_ID))


@settings(max_examples=120, deadline=None)
@given(frame_lists, chunk_sizes, st.integers(min_value=0, max_value=6000))
def test_dispatches_what_the_stream_reader_reference_reads(frames, sizes, cut_tail):
    stream = _framed(encode_hello(PEER_ID)) + b"".join(_framed(f) for f in frames)
    stream = stream[: max(0, len(stream) - cut_tail)]  # often ends mid-frame, as a reset does
    chunks = _chunked(stream, sizes)
    expected, _stop = asyncio.run(_reference(chunks))

    ends = [0]
    for frame in expected:
        ends.append(ends[-1] + 4 + len(frame))

    node, transport, link = _connection()
    fed = 0
    for chunk in chunks:
        link.data_received(chunk)
        fed += len(chunk)
        # kept: the one frame still arriving, nothing that is complete
        parsed = max(end for end in ends if end <= fed)
        assert bytes(link.buffer) == stream[parsed:fed]
    assert not transport.aborted
    if expected:
        assert decode_hello(expected[0]) == PEER_ID
        assert transport.written == ACK
    else:
        assert transport.written == b""
    assert node.dispatched == [(PEER_ID, frame) for frame in expected[1:]]
    assert not node.env.stats.value("live_inbound_rejected")


@settings(max_examples=80, deadline=None)
@given(frame_lists, st.data(), chunk_sizes, st.integers(min_value=MAX_FRAME + 1, max_value=2**32 - 1))
def test_an_oversized_prefix_ends_the_connection_where_it_stands(frames, data, sizes, announced):
    position = data.draw(st.integers(min_value=0, max_value=len(frames) + 1), label="position")
    good = [encode_hello(PEER_ID)] + frames
    before, after = good[:position], good[position:]
    stream = (
        b"".join(_framed(f) for f in before)
        + announced.to_bytes(4, "big")
        + b"".join(_framed(f) for f in after)
    )
    chunks = _chunked(stream, sizes)
    expected, stop = asyncio.run(_reference(chunks))
    assert isinstance(stop, WireError) and expected == before

    node, transport, link = _connection()
    for chunk in chunks:
        link.data_received(chunk)
        if transport.aborted:
            assert len(link.buffer) == 0  # nothing kept past the prefix, then or later
    assert transport.aborted and not node._inbound
    assert node.dispatched == [(PEER_ID, frame) for frame in before[1:]]
    assert transport.written == (ACK if before else b"")
    assert node.env.stats.value("live_inbound_rejected") == 1


@settings(max_examples=60, deadline=None)
@example(15, [b"record"], [1])
@example(17, [b"record"], [64])
@given(
    st.integers(min_value=0, max_value=40).filter(lambda size: size != 16),
    frame_lists,
    chunk_sizes,
)
def test_a_hello_of_the_wrong_size_ends_the_connection(size, frames, sizes):
    stream = _framed(bytes(size)) + b"".join(_framed(f) for f in frames)
    node, transport, link = _connection()
    for chunk in _chunked(stream, sizes):
        link.data_received(chunk)
    assert transport.aborted and transport.written == b"" and node.dispatched == []
    assert len(link.buffer) == 0 and not node._inbound
    assert node.env.stats.value("live_inbound_rejected") == 1

