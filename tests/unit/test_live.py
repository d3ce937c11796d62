"""Unit tests for the live asyncio runtime building blocks.

The full-cluster and parity runs live in
``tests/integration/test_live_parity.py``; this module covers the
pieces in isolation: framing, the outbound ``PeerLink`` and the inbound
connection parser against real 127.0.0.1 sockets, the bootstrap
directory, deterministic identity material, and the NodeEnvironment
protocol conformance of both substrates.
"""

import asyncio
import dataclasses
import socket

import pytest

from repro.core.config import RacConfig, timer_regime
from repro.core.environment import NodeEnvironment
from repro.core.identity import build_population
from repro.core.system import RacSystem
from repro.core.messages import Broadcast, group_domain
from repro.core.wire import WireError, encode_message
from repro.crypto.dh import GROUP_TEST, DHGroup
from repro.crypto.keys import KeyPair, PublicKey
from repro.live import environment as live_environment
from repro.live.cluster import LiveCluster, LiveReport
from repro.live.directory import BootstrapDirectory, DirectoryClient, DirectoryError, RosterEntry
from repro.live.environment import LiveEnvironment, PeerLink
from repro.live.framing import (
    MAX_FRAME,
    decode_hello,
    encode_hello,
    read_frame,
    read_hello,
    write_frame,
)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def test_hello_roundtrip():
    for node_id in (0, 1, 0xDEADBEEF, (1 << 128) - 1):
        assert decode_hello(encode_hello(node_id)) == node_id


def test_hello_rejects_bad_sizes():
    with pytest.raises(WireError):
        decode_hello(b"\x00" * 15)
    with pytest.raises(WireError):
        encode_hello(1 << 128)


def test_frame_roundtrip_over_tcp():
    async def scenario():
        received = []
        done = asyncio.Event()

        async def handler(reader, writer):
            received.append(await read_frame(reader))
            received.append(await read_frame(reader))
            done.set()
            writer.close()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        write_frame(writer, b"hello")
        write_frame(writer, b"")  # empty frames are legal
        await writer.drain()
        await asyncio.wait_for(done.wait(), timeout=5)
        writer.close()
        server.close()
        await server.wait_closed()
        return received

    assert run(scenario()) == [b"hello", b""]


def test_oversized_frames_rejected_both_directions():
    async def scenario():
        caught = []

        async def handler(reader, writer):
            try:
                await read_frame(reader)
            except WireError as exc:
                caught.append(exc)
            writer.close()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        # Writing an oversized frame is refused locally...
        with pytest.raises(WireError):
            write_frame(writer, b"x" * (MAX_FRAME + 1))
        # ...and a forged oversized length prefix is refused before the
        # reader allocates anything.
        writer.write((MAX_FRAME + 1).to_bytes(4, "big"))
        await writer.drain()
        await asyncio.sleep(0.1)
        writer.close()
        server.close()
        await server.wait_closed()
        return caught

    assert len(run(scenario())) == 1


# ---------------------------------------------------------------------------
# bootstrap directory
# ---------------------------------------------------------------------------


def _entries(count):
    config = RacConfig.small()
    return [
        RosterEntry(
            node_id=m.node_id,
            host="127.0.0.1",
            port=9000 + i,
            id_key=m.id_keypair.public,
            pseudonym_key=m.pseudonym_keypair.public,
        )
        for i, m in enumerate(build_population(config, count))
    ]


def test_roster_entry_json_roundtrip():
    entry = _entries(1)[0]
    assert RosterEntry.from_json(entry.to_json()) == entry


def test_directory_register_and_wait_roster():
    async def scenario():
        directory = BootstrapDirectory()
        await directory.start()
        entries = _entries(3)
        client = DirectoryClient(*directory.address)

        async def late_register():
            await asyncio.sleep(0.05)
            for entry in entries[1:]:
                await client.register(entry)

        await client.register(entries[0])
        task = asyncio.get_running_loop().create_task(late_register())
        roster = await client.wait_roster(3, timeout=5)
        await task
        await directory.close()
        return roster

    roster = run(scenario())
    assert [e.node_id for e in roster] == sorted(e.node_id for e in roster)
    assert {e.node_id for e in roster} == {e.node_id for e in _entries(3)}


def test_directory_rejects_garbage_without_dying():
    async def scenario():
        directory = BootstrapDirectory()
        await directory.start()
        reader, writer = await asyncio.open_connection(*directory.address)
        writer.write(b"this is not json\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=5)
        writer.close()
        # The directory must still serve well-formed clients after.
        client = DirectoryClient(*directory.address)
        count = await client.register(_entries(1)[0])
        await directory.close()
        return line, count

    line, count = run(scenario())
    assert b'"ok": false' in line
    assert count == 1


def test_directory_refuses_a_dh_key_in_a_foreign_group():
    # Every node seals onions to the roster's keys: a registered key
    # that sets its own exponent length would stall each of them.
    entry = _entries(1)[0]
    honest = KeyPair.generate("dh", seed=1).public
    forged = dataclasses.replace(
        entry,
        id_key=PublicKey(
            "dh", honest.key_id, dh_value=honest.dh_value,
            dh_group=DHGroup(GROUP_TEST.prime, GROUP_TEST.generator, 2**20),
        ),
    )
    with pytest.raises(WireError):
        RosterEntry.from_json(forged.to_json())

    async def scenario():
        directory = BootstrapDirectory()
        await directory.start()
        client = DirectoryClient(*directory.address)
        try:
            with pytest.raises(DirectoryError, match="unknown group"):
                await client.register(forged)
            return await client.register(entry), directory.roster()
        finally:
            await directory.close()

    count, roster = run(scenario())
    assert count == 1 and roster == [entry]


# ---------------------------------------------------------------------------
# identity determinism
# ---------------------------------------------------------------------------


def test_build_population_matches_system_bootstrap():
    """The live runtime's standalone population must be the exact
    population a same-seeded RacSystem creates — ids, keys and all."""
    config = timer_regime("wall")
    system = RacSystem(config, seed=11)
    node_ids = system.bootstrap(6)
    population = build_population(config, 6, seed=11)
    assert [m.node_id for m in population] == node_ids
    for material in population:
        node = system.nodes[material.node_id]
        assert node.id_keypair.public == material.id_keypair.public
        assert node.pseudonym_keypair.public == material.pseudonym_keypair.public


# ---------------------------------------------------------------------------
# PeerLink: the outbound half of a TCP link, against a stream-API peer
# ---------------------------------------------------------------------------


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Sink:
    """The far end of a link, written against the framing reference
    (``read_hello`` / ``read_frame`` on a StreamReader): records what it
    is sent. ``ack`` is the id it answers a hello with (None: never);
    while ``reading`` is clear it leaves record frames in the socket."""

    def __init__(self, ack):
        self.ack = ack
        self.hellos = []
        self.frames = []
        self.reading = asyncio.Event()
        self.reading.set()
        self._server = None
        self._writers = set()

    async def start(self, port=0):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", port)
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        self._writers.add(writer)
        try:
            self.hellos.append(await read_hello(reader))
            if self.ack is not None:
                write_frame(writer, encode_hello(self.ack))
            while True:
                await self.reading.wait()
                self.frames.append(await read_frame(reader))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def stop(self):
        self._server.close()
        for writer in list(self._writers):
            writer.transport.abort()
        await self._server.wait_closed()
        while self._writers:  # every handler has seen its connection go
            await asyncio.sleep(0.005)

    async def got(self, count, timeout=2.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.frames) < count and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.005)
        return list(self.frames)


def _link(port):
    """A PeerLink from node 0 of a two-node roster to ``port``, with the
    environment that owns it and the peer's id."""
    me, peer = _entries(2)
    peer = dataclasses.replace(peer, port=port)
    env = LiveEnvironment(me.node_id, RacConfig.small(), [me, peer])
    link = env._links[peer.node_id] = PeerLink(env, peer)
    return env, link, peer.node_id


def _numbered(count):
    return [b"frame-%d" % i for i in range(count)]


def test_link_holds_frames_until_the_peer_listens():
    async def scenario():
        port = _free_port()
        env, link, peer_id = _link(port)
        frames = _numbered(20)
        for frame in frames[:10]:
            link.send(frame)
        await asyncio.sleep(0.15)  # a few refused connects
        sink = _Sink(ack=peer_id)
        await sink.start(port)
        for frame in frames[10:]:
            link.send(frame)
        received = await sink.got(20)
        env.close()
        await sink.stop()
        return frames, received, sink.hellos, env.stats.as_dict(), env.node_id

    frames, received, hellos, stats, node_id = run(scenario())
    assert received == frames
    assert hellos == [node_id]
    assert stats["live_connects"] == 1 and stats["live_reconnect_failures"] >= 1
    assert stats["live_frames_sent"] == 20
    assert stats["live_bytes_sent"] == sum(len(f) + 4 for f in frames)


def test_link_reconnects_to_a_reopened_server():
    async def scenario():
        sink = _Sink(ack=None)
        port = await sink.start()
        env, link, peer_id = _link(port)
        sink.ack = peer_id
        link.send(b"before")
        assert await sink.got(1) == [b"before"]
        await sink.stop()
        await asyncio.sleep(0.05)  # the reset reaches the link
        frames = _numbered(10)
        for frame in frames[:5]:
            link.send(frame)
        await asyncio.sleep(0.1)
        reopened = _Sink(ack=peer_id)
        await reopened.start(port)
        for frame in frames[5:]:
            link.send(frame)
        received = await reopened.got(10)
        env.close()
        await reopened.stop()
        return frames, received, env.stats.as_dict()

    frames, received, stats = run(scenario())
    assert received == frames
    assert stats["live_connects"] == 2
    assert stats["live_hello_acks"] == 2
    assert stats["live_link_resets"] == 1


def test_link_writes_nothing_to_a_server_that_never_acks(monkeypatch):
    monkeypatch.setattr(live_environment, "_HELLO_ACK_TIMEOUT", 0.02)
    backoffs = []

    async def recorded_sleep(self, backoff):
        backoffs.append(backoff)
        await asyncio.sleep(0.001)

    monkeypatch.setattr(PeerLink, "_backoff_sleep", recorded_sleep)

    async def scenario():
        sink = _Sink(ack=None)
        env, link, _peer_id = _link(await sink.start())
        link.send(b"never written")
        while len(backoffs) < 9:
            await asyncio.sleep(0.01)
        env.close()
        await sink.stop()
        return sink, env.stats.as_dict()

    sink, stats = run(scenario())
    assert sink.frames == [] and len(sink.hellos) >= 9
    assert "live_frames_sent" not in stats and "live_hello_acks" not in stats
    assert stats["live_reconnect_failures"] >= 9
    # doubles from the initial backoff and stops at the cap
    assert backoffs[:3] == [0.05, 0.1, 0.2]
    assert max(backoffs) == live_environment._BACKOFF_MAX


def test_link_resets_on_a_hello_ack_from_the_wrong_node():
    async def scenario():
        env, link, peer_id = _link(0)
        sink = _Sink(ack=peer_id ^ 1)
        link.peer = dataclasses.replace(link.peer, port=await sink.start())
        link.send(b"for someone else")
        while not env.stats.value("live_link_resets"):
            await asyncio.sleep(0.005)
        await asyncio.sleep(0.02)
        env.close()
        await sink.stop()
        return sink.frames, env.stats.as_dict()

    frames, stats = run(scenario())
    assert frames == []
    assert "live_frames_sent" not in stats and "live_hello_acks" not in stats
    assert stats["live_reconnect_failures"] >= 1


def test_link_backlog_keeps_the_newest_frames():
    extra = 7
    bound = live_environment._MAX_QUEUED_FRAMES

    async def scenario():
        port = _free_port()
        env, link, peer_id = _link(port)
        frames = _numbered(bound + extra)
        for frame in frames:
            link.send(frame)
        dropped = env.stats.value("live_frames_dropped_backlog")
        queued = link.queued_bytes
        sink = _Sink(ack=peer_id)
        await sink.start(port)
        received = await sink.got(bound)
        await asyncio.sleep(0.02)
        env.close()
        await sink.stop()
        return frames, dropped, queued, sink.frames, link.queued_bytes

    frames, dropped, queued, received, left = run(scenario())
    assert dropped == extra
    assert queued == sum(len(f) for f in frames[extra:]) and left == 0
    assert received == frames[extra:]


def test_link_send_after_close_is_counted():
    async def scenario():
        env, link, _peer_id = _link(_free_port())
        link.send(b"queued")
        link.close()
        link.send(b"late")
        link.send(b"later")
        await asyncio.sleep(0)
        return env.stats.as_dict()

    assert run(scenario())["live_frames_dropped_closed"] == 2


def test_link_queues_behind_a_full_transport_and_delivers_in_order():
    async def scenario():
        sink = _Sink(ack=None)
        env, link, peer_id = _link(await sink.start())
        sink.ack = peer_id
        sink.reading.clear()
        blob = bytes(64 * 1024)
        messages = [Broadcast(group_domain(1), i, blob, i % 3) for i in range(120)]
        env.unicast(env.node_id, peer_id, messages[0], len(blob))
        while link._stream is None:
            await asyncio.sleep(0.005)
        # the transport's own limits are what _flush honours
        link._stream[1].transport.set_write_buffer_limits(high=4096, low=1024)
        for message in messages[1:]:
            env.unicast(env.node_id, peer_id, message, len(blob))
        queued, backlog = len(link._queue), env.uplink_backlog_seconds(env.node_id)
        sent_while_stalled = env.stats.value("live_frames_sent")
        sink.reading.set()
        received = await sink.got(len(messages), timeout=5.0)
        await asyncio.sleep(0.02)
        after = (link.queued_bytes, env.uplink_backlog_seconds(env.node_id))
        env.close()
        await sink.stop()
        return messages, received, queued, backlog, sent_while_stalled, after, env.stats.as_dict()

    messages, received, queued, backlog, stalled, after, stats = run(scenario())
    assert queued > 0 and backlog > 0 and stalled + queued == len(messages)
    assert received == [encode_message(m) for m in messages]
    assert after == (0, 0.0)
    assert stats["live_frames_sent"] == len(messages) and "live_link_resets" not in stats


def test_link_refuses_an_unsendable_frame_at_the_door():
    """One frame above MAX_FRAME used to sit at the head of the queue
    forever: write_frame refused it, the link reset, reconnected (the
    ack reset the backoff) and met it again, thousands of times a second."""

    async def scenario():
        sink = _Sink(ack=None)
        env, link, peer_id = _link(await sink.start())
        sink.ack = peer_id
        link.send(b"first")
        link.send(b"x" * (MAX_FRAME + 1))
        link.send(b"second")
        received = await sink.got(2)
        await asyncio.sleep(0.1)
        env.close()
        await sink.stop()
        return received, env.stats.as_dict()

    received, stats = run(scenario())
    assert received == [b"first", b"second"]
    assert stats["live_frames_dropped_oversize"] == 1
    assert "live_link_resets" not in stats and stats["live_connects"] == 1


# ---------------------------------------------------------------------------
# inbound connections of a LiveNode
# ---------------------------------------------------------------------------


def test_node_counts_and_drops_a_connection_it_cannot_parse():
    async def refused(port, opening):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(opening)
        try:
            return await asyncio.wait_for(reader.read(), timeout=2)
        except ConnectionError:
            return b""
        finally:
            writer.close()

    async def scenario():
        cluster = LiveCluster(2, config=timer_regime("wall"))
        await cluster.start()
        node = cluster.nodes[0]
        answers = [
            await refused(node.port, (15).to_bytes(4, "big") + bytes(15)),
            await refused(node.port, (17).to_bytes(4, "big") + bytes(17)),
            await refused(node.port, (MAX_FRAME + 1).to_bytes(4, "big") + b"junk"),
            # a good hello is acked; the oversized prefix after it is not survived
            await refused(node.port, b"\x00\x00\x00\x10" + bytes(16) + b"\xff\xff\xff\xff"),
        ]
        inbound = len(node._inbound)
        report = await cluster.shutdown()
        return answers, inbound, report.per_node, node.node_id, report.errors

    answers, inbound, per_node, node_id, errors = run(scenario())
    ack = (16).to_bytes(4, "big") + encode_hello(node_id)
    assert answers == [b"", b"", b"", ack]
    assert per_node[node_id]["live_inbound_rejected"] == 4
    assert inbound <= 1 and not errors  # only the other node's link, if it has spoken yet


# ---------------------------------------------------------------------------
# NodeEnvironment protocol conformance
# ---------------------------------------------------------------------------


def test_both_substrates_satisfy_node_environment():
    system = RacSystem(RacConfig.small(), seed=0)
    assert isinstance(system, NodeEnvironment)

    config = timer_regime("wall")
    roster = _entries(4)
    env = LiveEnvironment(roster[0].node_id, config, roster)
    assert isinstance(env, NodeEnvironment)


def test_live_environment_membership_replica():
    config = timer_regime("wall")
    roster = _entries(5)
    env = LiveEnvironment(roster[0].node_id, config, roster)
    for entry in roster:
        gid = env.group_of(entry.node_id)
        view = env.domain_view(("group", gid))
        assert view is not None and entry.node_id in view
    # Replicas built from the same roster agree on every ring.
    other = LiveEnvironment(roster[1].node_id, config, roster)
    for entry in roster:
        gid = env.group_of(entry.node_id)
        assert other.group_of(entry.node_id) == gid
        assert other.domain_view(("group", gid)).members == env.domain_view(
            ("group", gid)
        ).members


def test_live_environment_eviction_updates_replica():
    config = timer_regime("wall")
    roster = _entries(4)
    env = LiveEnvironment(roster[0].node_id, config, roster)
    victim = roster[2].node_id
    env.apply_eviction(victim)
    assert victim not in env.peers
    gid = env.group_of(roster[0].node_id)
    view = env.domain_view(("group", gid))
    assert view is None or victim not in view
    # Idempotent: applying again is a no-op, not an error.
    env.apply_eviction(victim)


# ---------------------------------------------------------------------------
# cluster plumbing
# ---------------------------------------------------------------------------


def test_cluster_requires_two_nodes():
    with pytest.raises(ValueError):
        LiveCluster(1)


def test_live_report_aggregation():
    report = LiveReport(
        nodes=2,
        duration=1.0,
        delivered={1: [b"a", b"b"], 2: [b"c"]},
        per_node={
            1: {"accusation_replay": 1, "live_frames_sent": 10},
            2: {"accusation_rate-low": 2, "live_frames_sent": 5},
        },
        evicted=[7],
    )
    assert report.deliveries == 3
    assert report.accusations == 3
    assert report.counters()["live_frames_sent"] == 15
    text = report.render()
    assert "anonymous deliveries : 3" in text
    assert "evictions            : 1" in text
