"""Property-based tests for the wire codecs: decode(encode(x)) == x,
and decode on arbitrary / mutated bytes fails only with WireError."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.messages import Accusation, Broadcast, EvictionNotice, channel_domain, group_domain
from repro.core.wire import WireError, decode_message, decode_public_key, encode_message, encode_public_key
from repro.crypto.dh import GROUP_2048, GROUP_TEST, DHGroup
from repro.crypto.keys import KeyPair, PublicKey

ids = st.integers(min_value=0, max_value=(1 << 128) - 1)
gids = st.integers(min_value=0, max_value=(1 << 64) - 1)

domains = st.one_of(
    gids.map(group_domain),
    st.tuples(gids, gids).filter(lambda t: t[0] != t[1]).map(lambda t: channel_domain(*t)),
)

broadcasts = st.builds(
    Broadcast,
    domain=domains,
    msg_id=ids,
    wire=st.binary(min_size=0, max_size=512),
    ring_index=st.integers(min_value=0, max_value=63),
)

accusations = st.builds(
    Accusation,
    accuser=ids,
    accused=ids,
    domain=domains,
    reason=st.sampled_from(["missing-copy", "replay", "rate-low", "rate-high", "weird reason π"]),
    msg_id=st.one_of(st.none(), ids),
)

notices = st.builds(
    EvictionNotice,
    accuser=ids,
    accused=ids,
    domain=domains,
    kind=st.sampled_from(["predecessor", "rate-high", "relay", "weird kind π"]),
)

messages = st.one_of(broadcasts, accusations, notices)


@settings(max_examples=200)
@given(messages)
def test_roundtrip(message):
    assert decode_message(encode_message(message)) == message


@settings(max_examples=100)
@given(messages, messages)
def test_distinct_messages_encode_distinctly(a, b):
    if a != b:
        assert encode_message(a) != encode_message(b)


# ---------------------------------------------------------------------------
# adversarial inputs: decode_message must fail *only* with WireError
# ---------------------------------------------------------------------------


def _decode_total(data: bytes):
    """decode_message as a total function: the value, or WireError.

    Any other exception (struct.error, IndexError, KeyError, ...) is a
    hardening bug and propagates to fail the test.
    """
    try:
        return decode_message(bytes(data))
    except WireError:
        return None


@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=600))
def test_arbitrary_bytes_never_leak_internal_errors(data):
    _decode_total(data)


@settings(max_examples=100)
@given(messages)
def test_truncations_raise_only_wireerror(message):
    """Every strict prefix of a valid encoding must be rejected cleanly
    (a short TCP read or cut frame is routine, not exceptional)."""
    encoded = encode_message(message)
    for cut in range(len(encoded)):
        assert _decode_total(encoded[:cut]) != message


@settings(max_examples=50)
@given(messages, st.data())
def test_byte_mutations_raise_only_wireerror(message, data):
    """Flip bytes of a valid encoding one position at a time: every
    mutation either decodes to *some* message or raises WireError —
    never an internal exception."""
    encoded = bytearray(encode_message(message))
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(encoded) - 1),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    for pos in positions:
        mutated = bytearray(encoded)
        mutated[pos] = data.draw(
            st.integers(min_value=0, max_value=255).filter(lambda b: b != encoded[pos]),
            label=f"byte@{pos}",
        )
        _decode_total(bytes(mutated))


@st.composite
def mutated_frames(draw):
    encoded = bytearray(encode_message(draw(messages)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        encoded[draw(st.integers(min_value=0, max_value=len(encoded) - 1))] = draw(st.integers(0, 255))
    return bytes(encoded)


@settings(max_examples=400)
@given(
    st.one_of(
        st.binary(max_size=200),
        # a valid tag and domain kind up front, so the body gets parsed
        st.tuples(st.sampled_from([b"\x01\x01", b"\x02", b"\x08"]), st.binary(max_size=120)).map(b"".join),
        mutated_frames(),
    )
)
def test_arbitrary_and_mutated_frames_decode_to_a_handled_message_or_raise(data):
    """The decoder's whole contract on untrusted bytes: WireError, or a
    message a node can handle (channel keys as channel_domain() makes
    them)."""
    decoded = _decode_total(data)
    if decoded is None:
        return
    assert type(decoded) in (Broadcast, Accusation, EvictionNotice)
    kind, key = decoded.domain
    if kind == "channel":
        assert key[0] < key[1]


# ---------------------------------------------------------------------------
# DH keys off the wire: a group this build defines and a value in [2, p-2]
# ---------------------------------------------------------------------------


def _dh_key_blob(group: DHGroup, value: int) -> bytes:
    return encode_public_key(PublicKey("dh", 7, dh_value=value, dh_group=group))


@pytest.mark.parametrize("group", [GROUP_TEST, GROUP_2048], ids=["test", "2048"])
def test_dh_keys_of_the_defined_groups_round_trip(group):
    key = KeyPair.generate("dh", seed=3, group=group).public
    assert decode_public_key(encode_public_key(key)) == key
    for value in (2, group.prime - 2):
        assert decode_public_key(_dh_key_blob(group, value)).dh_value == value


@settings(max_examples=100)
@given(
    st.sampled_from([GROUP_TEST, GROUP_2048]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_dh_key_in_a_foreign_group_is_refused(group, generator, exponent_bits, other_prime):
    # A sealer to a key raises g to exponent_bits-long exponents and
    # tables its public value: a peer-chosen exponent length of 2**20
    # took 11 s and 754 MiB per seal, and 2**32 - 1 a 512 MiB shift.
    prime = group.prime + 2 if other_prime else group.prime
    forged = DHGroup(prime, generator, exponent_bits)
    if forged in (GROUP_TEST, GROUP_2048):
        return
    with pytest.raises(WireError, match="unknown group"):
        decode_public_key(_dh_key_blob(forged, 4))


@pytest.mark.parametrize("exponent_bits", [2**16, 2**20, 2**32 - 1])
def test_dh_key_with_a_huge_exponent_length_is_refused(exponent_bits):
    forged = DHGroup(GROUP_TEST.prime, GROUP_TEST.generator, exponent_bits)
    with pytest.raises(WireError, match="unknown group"):
        decode_public_key(_dh_key_blob(forged, 4))


@pytest.mark.parametrize("group", [GROUP_TEST, GROUP_2048], ids=["test", "2048"])
@pytest.mark.parametrize(
    "primes, offset", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)], ids=["0", "1", "p-1", "p", "p+1"]
)
def test_dh_key_with_a_degenerate_value_is_refused(group, primes, offset):
    with pytest.raises(WireError, match="out of range"):
        decode_public_key(_dh_key_blob(group, primes * group.prime + offset))


# ---------------------------------------------------------------------------
# the one-call group-Broadcast codec against the general path
# ---------------------------------------------------------------------------


def _general_encode(message: Broadcast) -> bytes:
    """``encode_message``'s Broadcast branch as it stood before the
    group-domain header got a single ``struct``: field by field."""
    kind, key = message.domain
    if kind == "group":
        domain = bytes([0]) + struct.pack(">Q", key)
    else:
        domain = bytes([1]) + struct.pack(">Q", key[0]) + struct.pack(">Q", key[1])
    if not 0 <= message.msg_id < (1 << 128):
        raise WireError(f"id out of range: {message.msg_id}")
    return (
        bytes([1])
        + domain
        + message.msg_id.to_bytes(16, "big")
        + struct.pack(">I", message.ring_index)
        + struct.pack(">I", len(message.wire))
        + message.wire
    )


def _general_decode(data: bytes):
    """``decode_message`` with a Broadcast read through ``_Reader``,
    field by field (other tags only ever had that path)."""
    if not data or data[0] != 1:
        return decode_message(data)
    reader = wire._Reader(data)
    reader.u8()
    domain, msg_id, ring_index, blob = reader.domain(), reader.node_id(), reader.u32(), reader.blob()
    reader.done()
    return Broadcast(domain, msg_id, blob, ring_index)


def _outcome(decode, data: bytes):
    try:
        return decode(data)
    except WireError:
        return WireError


any_broadcast = st.builds(
    Broadcast,
    domain=domains,
    msg_id=ids,
    wire=st.one_of(st.just(b""), st.binary(max_size=64), st.just(bytes(range(250)) * 40)),
    ring_index=st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 2**31, 2**32 - 1])
    ),
)


@settings(max_examples=300)
@given(any_broadcast)
def test_broadcast_bytes_equal_the_general_encoding(message):
    encoded = encode_message(message)
    assert encoded == _general_encode(message)
    assert decode_message(encoded) == _general_decode(encoded) == message


@pytest.mark.parametrize(
    "field, value",
    [
        ("msg_id", 1 << 128),
        ("msg_id", -1),
        ("domain", group_domain(1 << 64)),
        ("domain", group_domain(-1)),
        ("domain", ("channel", (1, 1 << 64))),
        ("ring_index", 1 << 32),
        ("ring_index", -1),
    ],
)
def test_out_of_range_fields_fail_as_on_the_general_path(field, value):
    fields = dict(domain=group_domain(3), msg_id=5, wire=b"blob", ring_index=2)
    message = Broadcast(**{**fields, field: value})
    with pytest.raises((WireError, struct.error)) as general:
        _general_encode(message)
    with pytest.raises(general.type) as fast:
        encode_message(message)
    assert str(fast.value) == str(general.value)
    if field == "msg_id":
        assert general.type is WireError


@settings(max_examples=300)
@given(any_broadcast, st.data())
def test_damaged_broadcasts_decode_as_on_the_general_path(message, data):
    """Mutate, truncate or extend a valid frame: the two decoders agree
    on the message, or both raise WireError."""
    encoded = encode_message(message)
    header = min(len(encoded), 60)  # where every field but the blob lives
    damage = data.draw(st.sampled_from(["mutate", "truncate", "extend"]))
    if damage == "mutate":
        position = data.draw(st.integers(min_value=0, max_value=header - 1))
        value = data.draw(st.integers(min_value=0, max_value=255))
        damaged = encoded[:position] + bytes([value]) + encoded[position + 1 :]
    elif damage == "truncate":
        damaged = encoded[: data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))]
    else:
        damaged = encoded + data.draw(st.binary(min_size=1, max_size=40))
    assert _outcome(decode_message, damaged) == _outcome(_general_decode, damaged)
