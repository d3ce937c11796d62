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
from repro.core.messages import Accusation, Broadcast, group_domain
from repro.core.node import RacNode
from repro.core.wire import WireError, encode_message
from repro.crypto.dh import GROUP_TEST, DHGroup
from repro.crypto.keys import KeyPair, PublicKey
from repro.live import environment as live_environment
from repro.live.cluster import LiveCluster, LiveReport
from repro.live.directory import BootstrapDirectory, DirectoryClient, DirectoryError, RosterEntry
from repro.live.environment import LiveEnvironment, PeerLink
from repro.live.node import LiveNode
from repro.live.framing import (
    MAX_FRAME,
    decode_hello,
    encode_hello,
    read_frame,
    read_hello,
    write_frame,
)
from repro.scenario import Scenario, _checker, _judged_live


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


def _hostile_frame(kind, gid, num_rings):
    """One frame a hostile peer could send that no honest node does."""
    if kind == "retired-tag":  # no frame has tag 5; the body is one node id
        return bytes([5]) + (7).to_bytes(16, "big")
    if kind == "ring-index":
        return encode_message(Broadcast(group_domain(gid), 7, b"blob", num_rings))
    # An accusation on a channel key channel_domain() never makes. Its
    # encoder writes the pair as given; only the decoder judges it.
    pair = (gid, gid) if kind == "channel-same-group" else (gid + 1, gid)
    return encode_message(Accusation(1, 2, ("channel", pair), "replay", None))


@pytest.mark.parametrize("kind", ["retired-tag", "channel-same-group", "channel-reversed", "ring-index"])
def test_node_rejects_a_well_framed_record_no_node_sends(kind):
    config = timer_regime("wall")
    population = build_population(config, 4)
    me, peer = population[0], population[1]
    node = LiveNode(me, config, "127.0.0.1", 0)
    node.env = LiveEnvironment(me.node_id, config, _entries(4))
    node.rac = node.env.node = RacNode(me.node_id, config, node.env, me.id_keypair, me.pseudonym_keypair)
    node.rac.active = True
    node._dispatch(peer.node_id, _hostile_frame(kind, node.env.group_of(me.node_id), config.num_rings))
    counters = node.counters()
    assert counters.get("live_frames_rejected") == 1
    assert not node.env.errors
    assert counters.get("live_dispatch_errors", 0) == 0


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
    victim, by = roster[2].node_id, roster[1].node_id
    gid = env.group_of(victim)
    assert env.evict(victim, by, ("group", gid), "relay") == {}  # one group: no channel
    assert victim not in env.peers and victim not in env.directory
    view = env.domain_view(("group", env.group_of(roster[0].node_id)))
    assert view is None or victim not in view
    assert env.evicted[victim] == {"by": by, "domain": ("group", gid), "kind": "relay", "at": 0.0, "gid": gid}
    assert env.log == [("remove", victim)]
    # Idempotent: evicting again is a no-op, not an error.
    assert env.evict(victim, roster[3].node_id, ("group", gid), "relay") is None
    # A copy of the replica (a joiner's, a restarted node's) agrees.
    copy = LiveEnvironment(roster[3].node_id, config, env.roster, membership_log=env.log)
    assert victim not in copy.directory and copy.log == env.log
    # The replica's own eviction stops the node it hosts: its timers
    # must not keep ticking against a directory that no longer holds it.
    me = build_population(RacConfig.small(), 4)[0]
    env = LiveEnvironment(me.node_id, config, roster)
    env.node = RacNode(me.node_id, config, env, me.id_keypair, me.pseudonym_keypair)
    env.node.active = True
    env.evict(me.node_id, by, ("group", env.group_of(me.node_id)), "relay")
    assert not env.node.active
    env.node._tick()


# ---------------------------------------------------------------------------
# cluster plumbing
# ---------------------------------------------------------------------------


def test_cluster_requires_two_nodes():
    with pytest.raises(ValueError):
        LiveCluster(1)


def _node_report(node_id, epoch, *, delivered=(), counters=None, evicted=(), running=True, digest="d"):
    """A :meth:`LiveNode.report` as a worker prints it: times on the
    node's own clock, which started at loop time ``epoch``."""
    return {
        "node_id": node_id,
        "epoch": epoch,
        "running": running,
        "active": running,
        "delivered": [[at, payload.hex()] for at, payload in delivered],
        "counters": counters or {},
        "blacklist": [accused for accused, _at in evicted],
        "evicted": [
            [accused, {"by": node_id, "domain": ["group", 0], "kind": "relay", "at": at, "gid": 0}]
            for accused, at in evicted
        ],
        "reconfigurations": {},
        "digest": digest,
        "directory_error": None,
        "errors": [],
    }


def test_live_report_merges_incarnations_and_keeps_the_earliest_eviction():
    scenario = Scenario.from_params({"substrate": "live", "nodes": 4, "horizon": 4.0}, 0, "live")
    a, b, c, d = [m.node_id for m in build_population(scenario.configuration(), 4, 0)]
    report = LiveReport(
        [
            # b before and after a crash-restart: its second clock started 3 s later.
            _node_report(b, 100.0, delivered=[(0.5, b"b1")], counters={"accusation_replay": 1},
                         running=False),
            _node_report(b, 103.0, delivered=[(0.25, b"b2")],
                         counters={"accusation_replay": 2, "live_frames_sent": 4}),
            # a and c both evict d; c's clock started later but its record is earlier.
            _node_report(a, 100.0, delivered=[(1.0, b"a1")], evicted=[(d, 2.0), (c, 1.75)],
                         counters={"live_frames_sent": 10}),
            _node_report(c, 100.5, evicted=[(d, 1.0)]),
        ],
        ["traffic: stopped"],
    )
    assert report.delivered == {b: [b"b1", b"b2"], a: [b"a1"], c: []}
    assert report.per_node[b] == {"accusation_replay": 3, "live_frames_sent": 4}
    assert report.counters()["live_frames_sent"] == 14
    assert report.accusations == 3
    assert report.errors == ["traffic: stopped"]
    # d fell at loop time 101.5 by c's clock, not at a's 102.0; then c at 101.75.
    assert report.evictions(100.0) == [(1.5, c, d, "relay", 0), (1.75, a, c, "relay", 0)]
    assert report.evicted == [d, c]

    checker = _checker(scenario, [a, b, c, d], scenario.fault_plan())
    outcome = _judged_live(scenario, [a, b, c, d], checker, report, 100.0, 4.0)
    assert [e.accused for e in outcome.evictions] == report.evicted
    assert [e.by for e in outcome.evictions] == [c, a]
    assert outcome.deliveries == [(0.5, b, b"b1"), (1.0, a, b"a1"), (3.25, b, b"b2")]
    assert outcome.errors == ["traffic: stopped"]


def test_the_judge_fails_a_live_run_whose_replicas_disagree():
    scenario = Scenario.from_params({"substrate": "live", "nodes": 4, "horizon": 4.0}, 0, "live")
    node_ids = [m.node_id for m in build_population(scenario.configuration(), 4, 0)]

    def judged(*digests):
        report = LiveReport([_node_report(n, 100.0, digest=d) for n, d in zip(node_ids, digests)], [])
        checker = _checker(scenario, node_ids, scenario.fault_plan())
        return _judged_live(scenario, node_ids, checker, report, 100.0, 4.0)

    assert judged("d", "d", "d", "d").ok
    split = judged("d", "d", "e", "d")
    assert [v.invariant for v in split.report.violations] == ["safety-directory"]
    assert "replicas hold 2 directories" in split.render()
