"""Fuzzing properties: hostile bytes never crash the parsers.

A global active opponent controls nodes that can send arbitrary bytes;
every parsing surface (wire codecs, onion peeling, sealed boxes) must
fail *closed* — a typed error or an 'opaque' verdict, never an
unhandled exception.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.onion import build_onion, peel, unwrap_wire, wrap_wire
from repro.core.wire import WireError, decode_message, encode_message
from repro.core.messages import Broadcast, group_domain
from repro.crypto.keys import AuthenticationError, KeyPair, seal

_ID_KEY = KeyPair.generate("sim", seed=1)
_PSEUD_KEY = KeyPair.generate("sim", seed=2)
_DH_KEY = KeyPair.generate("dh", seed=3)
_PAYLOAD = b"genuine payload"
_BOXES = [(key, seal(key.public, _PAYLOAD, seed=4)) for key in (_ID_KEY, _DH_KEY)]


def _open_matches_unseal(blob, owner=None):
    """Under a key of either backend, ``unseal`` fails only with
    ``AuthenticationError`` and the trial primitive ``open`` answers its
    bytes, or None exactly where it raises; only ``owner`` opens ``blob``."""
    for key in (_ID_KEY, _DH_KEY):
        try:
            expected = key.unseal(blob)
        except AuthenticationError:
            expected = None
        assert key.open(blob) == expected
        assert expected == (_PAYLOAD if key is owner else None)


class TestDecoderFuzz:
    @settings(max_examples=300)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_raise_wire_error_or_decode(self, data):
        try:
            decode_message(data)
        except WireError:
            pass  # the only acceptable failure mode

    @settings(max_examples=100)
    @given(st.binary(min_size=1, max_size=200), st.integers(min_value=0, max_value=199))
    def test_bitflipped_frames_never_crash(self, payload, position):
        frame = bytearray(encode_message(Broadcast(group_domain(1), 7, payload, 0)))
        frame[position % len(frame)] ^= 0xFF
        try:
            decode_message(bytes(frame))
        except WireError:
            pass


class TestPeelFuzz:
    @settings(max_examples=200)
    @given(st.binary(min_size=0, max_size=4096))
    def test_arbitrary_wires_are_opaque_or_reject(self, wire):
        result = peel(wire, _ID_KEY, _PSEUD_KEY, 4096)
        assert result.kind in ("opaque", "relay", "deliver")

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=4095), st.integers(min_value=0, max_value=7))
    def test_bitflipped_onions_never_misdeliver(self, position, bit):
        onion = build_onion(
            b"genuine payload",
            [_ID_KEY.public],
            _PSEUD_KEY.public,
            4096,
            rng=random.Random(9),
        )
        wire = bytearray(onion.first_wire)
        wire[position] ^= 1 << bit
        result = peel(bytes(wire), _ID_KEY, _PSEUD_KEY, 4096)
        # A corrupted layer must never surface a *wrong* payload: it is
        # either rejected (opaque) or, if the flip hit only padding, the
        # original intact layer.
        if result.kind == "relay":
            assert result.inner_msg_id == onion.layer_msg_ids[1]
        else:
            assert result.kind == "opaque"
        for owner, box in _BOXES:
            _open_matches_unseal(box, owner)
            flipped = bytearray(box)
            flipped[position % len(box)] ^= 1 << bit
            _open_matches_unseal(bytes(flipped))
            _open_matches_unseal(box[: position % len(box)])

    @settings(max_examples=100)
    @given(st.binary(min_size=0, max_size=100))
    def test_unwrap_wire_fails_closed(self, data):
        try:
            blob = unwrap_wire(data)
        except ValueError:
            return
        assert wrap_wire(blob, max(100, len(blob) + 4))  # still usable


class TestUnsealFuzz:
    @settings(max_examples=200)
    @given(st.binary(min_size=0, max_size=256))
    def test_arbitrary_blobs_raise_authentication_error(self, blob):
        _open_matches_unseal(blob)
