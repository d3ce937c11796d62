"""Unit tests for the live asyncio runtime building blocks.

The full-cluster and parity runs live in
``tests/integration/test_live_parity.py``; this module covers the
pieces in isolation: framing, the bootstrap directory, deterministic
identity material, and the NodeEnvironment protocol conformance of
both substrates.
"""

import asyncio

import pytest

from repro.core.config import RacConfig, timer_regime
from repro.core.environment import NodeEnvironment
from repro.core.identity import build_population
from repro.core.system import RacSystem
from repro.core.wire import WireError
from repro.live.cluster import LiveCluster, LiveReport
from repro.live.directory import BootstrapDirectory, DirectoryClient, RosterEntry
from repro.live.environment import LiveEnvironment
from repro.live.framing import (
    MAX_FRAME,
    decode_hello,
    encode_hello,
    read_frame,
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
