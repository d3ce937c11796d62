"""Unit tests for the binary wire codecs."""

import pytest

from repro.core.messages import Accusation, Broadcast, EvictionNotice, channel_domain, group_domain
from repro.core.wire import WireError, decode_message, encode_message, encoded_size
from repro.simnet.snapshot import restore_system, snapshot_system

BIG = (1 << 127) + 12345


class TestRoundtrips:
    def test_broadcast_group(self):
        msg = Broadcast(group_domain(7), BIG, b"wire-bytes" * 100, 3)
        assert decode_message(encode_message(msg)) == msg

    def test_broadcast_channel(self):
        msg = Broadcast(channel_domain(9, 2), BIG, b"x", 0)
        assert decode_message(encode_message(msg)) == msg

    def test_broadcast_is_an_immutable_value_record(self):
        msg = Broadcast(group_domain(7), BIG, b"wire", 3)
        twin = Broadcast(("group", 7), BIG, b"wire", 3)
        assert msg == twin and hash(msg) == hash(twin)
        assert msg != Broadcast(group_domain(7), BIG, b"wire", 2)
        assert repr(msg) == f"Broadcast(domain=('group', 7), msg_id={BIG}, wire=b'wire', ring_index=3)"
        with pytest.raises(AttributeError):
            msg.ring_index = 0
        restored = restore_system(snapshot_system({"in flight": msg}, verify=True))["in flight"]
        assert type(restored) is Broadcast and restored == msg

    def test_accusation_with_msg_id(self):
        msg = Accusation(BIG, BIG - 1, group_domain(1), "missing-copy", 42)
        assert decode_message(encode_message(msg)) == msg

    def test_accusation_without_msg_id(self):
        msg = Accusation(1, 2, channel_domain(3, 4), "rate-high", None)
        assert decode_message(encode_message(msg)) == msg

    def test_eviction_notice(self):
        msg = EvictionNotice(BIG, BIG - 1, channel_domain(3, 4), "relay")
        assert decode_message(encode_message(msg)) == msg


class TestSizes:
    def test_broadcast_size_dominated_by_wire(self):
        small = Broadcast(group_domain(1), 1, b"a", 0)
        large = Broadcast(group_domain(1), 1, b"a" * 10_000, 0)
        assert encoded_size(large) - encoded_size(small) == 9_999

    def test_accusation_is_compact(self):
        msg = Accusation(BIG, BIG, group_domain(1), "replay", None)
        assert encoded_size(msg) < 128

    @pytest.mark.parametrize(
        "msg, frame",
        [
            (Broadcast(group_domain(7), 5, b"ab", 3),
             "01" "00" "0000000000000007" "00000000000000000000000000000005" "00000003" "00000002" "6162"),
            (Broadcast(channel_domain(9, 2), 5, b"ab", 3),
             "01" "01" "0000000000000002" "0000000000000009" "00000000000000000000000000000005"
             "00000003" "00000002" "6162"),
            (Accusation(1, 2, group_domain(7), "replay", None),
             "02" "00000000000000000000000000000001" "00000000000000000000000000000002"
             "00" "0000000000000007" "00000006" "7265706c6179" "00"),
            (Accusation(1, 2, channel_domain(3, 4), "rate-high", 42),
             "02" "00000000000000000000000000000001" "00000000000000000000000000000002"
             "01" "0000000000000003" "0000000000000004" "00000009" "726174652d68696768"
             "01" "0000000000000000000000000000002a"),
            (EvictionNotice(1, 2, channel_domain(3, 4), "relay"),
             "08" "00000000000000000000000000000001" "00000000000000000000000000000002"
             "01" "0000000000000003" "0000000000000004" "00000005" "72656c6179"),
        ],
        ids=["broadcast-group", "broadcast-channel", "accusation", "accusation-msg-id", "eviction-notice"],
    )
    def test_frames_are_pinned_bytes(self, msg, frame):
        # What the network is charged depends on these bytes.
        assert encode_message(msg).hex() == frame
        assert decode_message(bytes.fromhex(frame)) == msg


class TestMalformedFrames:
    def test_empty_frame(self):
        with pytest.raises(WireError):
            decode_message(b"")

    def test_unknown_tag(self):
        with pytest.raises(WireError):
            decode_message(bytes([99]))

    def test_truncated_frame(self):
        frame = encode_message(Accusation(BIG, 2, group_domain(1), "replay", None))
        with pytest.raises(WireError):
            decode_message(frame[:-3])

    def test_trailing_bytes_rejected(self):
        frame = encode_message(Accusation(BIG, 2, group_domain(1), "replay", None))
        with pytest.raises(WireError):
            decode_message(frame + b"\x00")

    @pytest.mark.parametrize("tag", [3, 4, 5, 6, 7])
    def test_tags_of_frames_no_node_sends_are_unknown(self, tag):
        # Join, READY and blacklist shares run in-process (3-7 were their
        # tags, and an older notice layout's): a peer's frame claiming to
        # be one is refused, not dispatched.
        with pytest.raises(WireError, match=f"unknown frame tag {tag}"):
            decode_message(bytes([tag]) + BIG.to_bytes(16, "big"))

    @pytest.mark.parametrize("pair", [(4, 4), (9, 2)], ids=["same-group", "reversed"])
    def test_channel_key_out_of_canonical_order_rejected(self, pair):
        def frame(gid_a, gid_b):  # a channel Broadcast, field by field
            key = gid_a.to_bytes(8, "big") + gid_b.to_bytes(8, "big")
            return bytes([1, 1]) + key + BIG.to_bytes(16, "big") + bytes(4) + (1).to_bytes(4, "big") + b"x"

        assert decode_message(frame(2, 9)) == Broadcast(channel_domain(2, 9), BIG, b"x", 0)
        with pytest.raises(WireError, match="canonical order"):
            decode_message(frame(*pair))

    def test_oversized_id_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_message(Accusation(1 << 129, 2, group_domain(1), "replay", None))
