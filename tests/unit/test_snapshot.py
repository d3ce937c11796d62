"""Unit tests for the simulation snapshot layer.

The contract (see ``repro/simnet/snapshot.py``): snapshots are
byte-deterministic — the same simulation state always serialises to the
same blob, and ``snapshot(restore(blob)) == blob`` — and taking one
never perturbs the live system. Checkpoint/resume and the sweep
orchestrator both build on these invariants.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import repro

from repro.core.config import RacConfig, timer_regime
from repro.core.system import RacSystem
from repro.overlay.broadcast import LATER_COPY, REPLAYED_COPY, BroadcastState
from repro.simnet.engine import ScheduledEvent, SimulationError, Simulator
from repro.simnet.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    load_snapshot,
    restore_system,
    save_snapshot,
    snapshot_system,
    verify_roundtrip,
)
from repro.simnet.transport import Segment


def _mid_run_system(seed: int = 11, nodes: int = 6) -> RacSystem:
    system = RacSystem(RacConfig.small(), seed=seed)
    ids = system.bootstrap(nodes)
    for index, src in enumerate(ids):
        system.send(src, ids[(index + 1) % len(ids)], f"snap/{index}".encode())
    system.run(1.0)
    return system


def _noop() -> None:
    pass


def _pending(system, name):
    """``(time, seq)`` of every live calendar entry for the callback ``name``."""
    return sorted(
        (event[0], event[1])
        for event in system.sim._queue
        if event[2] is not None and event[2].__name__ == name
    )


class _Rac2Event:
    """Pickles the way a ``RACSNAP/2`` calendar entry did."""

    def __reduce_ex__(self, protocol):
        slots = {"time": 1.0, "seq": 0, "callback": _noop, "args": (), "cancelled": False, "owner": None}
        return ScheduledEvent, (), (None, slots)


class _Rac3Monitor:
    """Pickles the way a ``RACSNAP/3`` predecessor monitor did."""

    def __reduce_ex__(self, protocol):
        from repro.core.monitor import PredecessorMonitor

        slots = {"timeout": 0.5, "_deadlines": [(1.5, 0, 7)], "_armed": 1,
                 "_expected": {7: [(3, 0)]}, "_checked": [5]}
        return object.__new__, (PredecessorMonitor,), (None, slots)


def _rac7_receipts() -> bytes:
    """Pickles the way a ``RACSNAP/7`` receipt table did: a
    ``BroadcastState`` holding one ``MessageRecord`` (first-copy time,
    a copy count per key, a ``delivered`` flag) per message id. The
    class is gone, so the stand-in exists only while the body is
    written."""
    from dataclasses import make_dataclass

    from repro.overlay import broadcast

    fields = [("first_seen_at", float), ("copies_from", dict), ("delivered", bool)]
    record = make_dataclass("MessageRecord", fields, slots=True)
    record.__module__ = broadcast.__name__
    receipts = {"_records": {7: record(1.0, {(3, 0): 1, (4, 1): 2}, False)}}

    class Rac7State:
        def __reduce_ex__(self, protocol):
            return object.__new__, (broadcast.BroadcastState,), receipts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(broadcast, "MessageRecord", record, raising=False)
        return pickle.dumps(Rac7State())


def _rac8_registry() -> bytes:
    """Pickles the way a ``RACSNAP/8`` stats registry did: one
    ``Counter`` object per name and a back-pointer to the transport.
    The class is gone, so the stand-in exists only while the body is
    written."""
    from dataclasses import make_dataclass

    from repro.simnet import stats

    counter = make_dataclass("Counter", [("name", str), ("value", int)], slots=True)
    counter.__module__ = stats.__name__
    registry = {"counters": {"evictions": counter("evictions", 1)}, "transport": None}

    class Rac8Registry:
        def __reduce_ex__(self, protocol):
            return object.__new__, (stats.StatsRegistry,), (None, registry)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "Counter", counter, raising=False)
        return pickle.dumps(Rac8Registry())


class _Rac9Node:
    """Pickles the way a ``RACSNAP/9`` node did: with an opaque-peel
    set per domain kind, slots a node no longer has."""

    def __reduce_ex__(self, protocol):
        from repro.core.node import RacNode

        slots = {"_opaque_group_peels": {7}, "_opaque_channel_peels": set()}
        return object.__new__, (RacNode,), (None, slots)


def _rac11_outstanding() -> bytes:
    """Pickles the way a ``RACSNAP/11`` unacknowledged segment did: with
    its own retransmit timer in a ``timer`` slot it no longer has."""
    from repro.simnet.transport import _Outstanding

    sim = Simulator()
    timer = sim.timer(0.5, _noop)
    slots = {"payload": b"x", "seqno": 0, "size_bytes": 50, "attempts": 0, "timer": timer}

    class Rac11Outstanding:
        def __reduce_ex__(self, protocol):
            return object.__new__, (_Outstanding,), (None, slots)

    return pickle.dumps(Rac11Outstanding())


def _rac12_keypair() -> bytes:
    """Pickles the way a ``RACSNAP/12`` key pair did: without the
    sealed-box header a trial open now starts from."""
    from repro.crypto.keys import KeyPair

    pair = KeyPair.generate("sim", seed=12)
    slots = {"backend": pair.backend, "public": pair.public, "_private": pair._private}

    class Rac12KeyPair:
        def __reduce_ex__(self, protocol):
            return object.__new__, (KeyPair,), (None, slots)

    return pickle.dumps(Rac12KeyPair())


def _rac13_transport() -> bytes:
    """Pickles the way a ``RACSNAP/13`` transport did: without the
    ``direct`` choice every send now reads first."""
    from repro.simnet.network import StarNetwork
    from repro.simnet.transport import ReliableTransport

    transport = ReliableTransport(StarNetwork(Simulator()))
    slots = {name: getattr(transport, name) for name in ReliableTransport.__slots__ if name != "direct"}

    class Rac13Transport:
        def __reduce_ex__(self, protocol):
            return object.__new__, (ReliableTransport,), (None, slots)

    return pickle.dumps(Rac13Transport())


def _rac14_tracker() -> bytes:
    """Pickles the way a ``RACSNAP/14`` eviction tracker did: its
    predecessor threshold a partial over a node function, not an int."""
    import functools

    from repro.core import node
    from repro.core.blacklist import EvictionTracker

    def _predecessor_threshold(env, config, domain):
        return 2

    _predecessor_threshold.__module__ = node.__name__
    _predecessor_threshold.__qualname__ = _predecessor_threshold.__name__
    tracker = EvictionTracker(functools.partial(_predecessor_threshold, None, None), len)
    node._predecessor_threshold = _predecessor_threshold
    try:
        return pickle.dumps(tracker)
    finally:
        del node._predecessor_threshold


def _rac15_tracker() -> bytes:
    """Pickles the way a ``RACSNAP/15`` eviction tracker did: predecessor
    and rate-high accusers in two tallies, not one ``_accusers`` store."""
    from repro.core import blacklist

    class EvictionTracker:
        __slots__ = (
            "_predecessor_threshold", "_relay_threshold", "_predecessor_accusers",
            "_rate_high_accusers", "_rate_high_filers", "_notifiers", "evicted",
        )

    EvictionTracker.__module__ = blacklist.__name__
    EvictionTracker.__qualname__ = "EvictionTracker"
    tracker = EvictionTracker()
    for name in EvictionTracker.__slots__:
        setattr(tracker, name, {})
    tracker._predecessor_threshold, tracker._relay_threshold = 2, len
    real, blacklist.EvictionTracker = blacklist.EvictionTracker, EvictionTracker
    try:
        return pickle.dumps(tracker)
    finally:
        blacklist.EvictionTracker = real


def _rac16_tracker() -> bytes:
    """Pickles the way a ``RACSNAP/16`` eviction tracker did: its notices
    as notifier sets in ``_notifiers``, without their kinds."""
    from repro.core import blacklist

    class EvictionTracker:
        __slots__ = (
            "_predecessor_threshold", "_relay_threshold", "_accusers",
            "_rate_high_filers", "_notifiers", "evicted",
        )

    EvictionTracker.__module__ = blacklist.__name__
    EvictionTracker.__qualname__ = "EvictionTracker"
    tracker = EvictionTracker()
    for name in EvictionTracker.__slots__:
        setattr(tracker, name, {})
    tracker._predecessor_threshold, tracker._relay_threshold = 2, len
    real, blacklist.EvictionTracker = blacklist.EvictionTracker, EvictionTracker
    try:
        return pickle.dumps(tracker)
    finally:
        blacklist.EvictionTracker = real


def _rac17_receipts() -> bytes:
    """Pickles the way a ``RACSNAP/17`` receipt table did: one
    ``(first_seen_at, *copy keys)`` tuple per message id in a lone
    ``_records`` slot, without the interned bits a mask is read by."""
    from repro.overlay.broadcast import BroadcastState

    slots = {"_records": {7: (1.0, (3, 0), (4, 1), (4, 1))}}

    class Rac17State:
        def __reduce_ex__(self, protocol):
            return object.__new__, (BroadcastState,), (None, slots)

    return pickle.dumps(Rac17State())


def _rac10_calendar() -> bytes:
    """Pickles the way a ``RACSNAP/10`` calendar did: every pending
    entry, a hop nobody holds included, a ``ScheduledEvent`` pointing
    back at its simulator."""
    sim = Simulator()
    sim._seq = 1
    sim._queue.append(ScheduledEvent((1.0, 0, _noop, (), sim)))
    return pickle.dumps(sim)


class TestSimulatorPickling:
    def test_sequence_counter_survives_pickling(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        clone = pickle.loads(pickle.dumps(sim))
        # The clone numbers its next event where the original stood.
        assert clone.timer(3.0, _noop).seq == 2
        clone.run(until=5.0)
        assert clone.events_processed == 3
        assert clone.now == 5.0

    def test_original_counter_still_monotonic_after_getstate(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        pickle.dumps(sim)
        # Pickling must not disturb the live simulator's numbering.
        assert sim.timer(2.0, _noop).seq == 1
        sim.run(until=3.0)
        assert sim.events_processed == 2


class TestSnapshotInvariants:
    def test_blob_has_magic_and_verifies(self):
        blob = snapshot_system(_mid_run_system(), verify=True)
        assert blob.startswith(SNAPSHOT_MAGIC)
        verify_roundtrip(blob)

    def test_snapshot_is_byte_deterministic(self):
        system = _mid_run_system()
        assert snapshot_system(system) == snapshot_system(system)

    def test_shared_and_distinct_equal_strings_snapshot_differently(self):
        # The canonical round trip keeps sharing (pickle's memo), so the
        # bytes say which objects are one: why a sharded run plans from
        # the very scenario object its cells read.
        one = "".join(["key", "-backend"])
        other = "".join(["key-", "backend"])
        assert one == other and one is not other
        shared, distinct = snapshot_system([one, one], verify=True), snapshot_system([one, other], verify=True)
        assert shared != distinct
        restored = restore_system(shared)
        assert restored[0] is restored[1]

    def test_snapshot_of_restore_is_identity(self):
        system = _mid_run_system()
        assert system.sim.pending_events() > 0  # events in flight
        blob = snapshot_system(system)
        assert snapshot_system(restore_system(blob)) == blob

    def test_receipts_mid_sequence_round_trip(self):
        # Masks past the small-int cache (a dozen ring edges), a replay
        # and a forgotten prefix: the restored receipts answer every
        # query as the original, and keep doing so as both go on.
        state = BroadcastState()
        keys = [(node, node % 3) for node in range(12)]
        for step, key in enumerate(keys):
            state.on_receive(100 + step % 4, key, step * 0.25)
        assert state.on_receive(102, keys[6], 4.0) == REPLAYED_COPY
        state.on_receive(200, None, 4.5)
        assert state.forget_before(0.5) == 2
        blob = snapshot_system(state, verify=True)
        restored = restore_system(blob)

        def answers(receipts):
            return (
                len(receipts),
                [msg_id in receipts for msg_id in (100, 101, 102, 103, 200)],
                [receipts.copies_from(msg_id, key) for msg_id in (100, 101, 102, 103) for key in keys],
                [sorted(receipts.missing_predecessors(msg_id, set(keys))) for msg_id in (101, 200)],
            )

        assert answers(restored) == answers(state)
        assert restored.copies_from(102, keys[6]) == 2
        for receipts in (state, restored):
            assert receipts.on_receive(102, keys[2], 5.0) == REPLAYED_COPY
            assert receipts.on_receive(103, (20, 0), 5.0) == LATER_COPY
            assert receipts.forget_before(4.0) == 2
        assert answers(restored) == answers(state)

    def test_mid_flood_deadlines_and_reserved_keys_round_trip(self):
        # 20 Mb/s links keep copies in flight, so the snapshot catches
        # monitors mid-debt: owed sets, deadlines carrying the reserved
        # key to fire at, and one armed check timer per monitor.
        system = RacSystem(RacConfig.small(link_bandwidth_bps=20e6), seed=11)
        system.set_loss_rate(0.5, node_id=-1)  # a link nobody has: the ARQ, no draw
        system.bootstrap(8)
        system.run(1.0)
        assert system.transport.direct is False

        def monitors(of):
            return [m for node in of.nodes.values() for m in node._pred_monitors.values()]

        def check_timers(of):
            return _pending(of, "_check_predecessors")

        held = [list(m._deadlines) for m in monitors(system)]
        assert any(held) and all(m._tickets for m in monitors(system))
        assert 0 < len(check_timers(system)) <= len(held)
        blob = snapshot_system(system, verify=True)
        restored = restore_system(blob)
        assert [list(m._deadlines) for m in monitors(restored)] == held
        assert [m._owed for m in monitors(restored)] == [m._owed for m in monitors(system)]
        assert check_timers(restored) == check_timers(system)
        system.run(1.0)
        restored.run(1.0)
        assert restored.sim.events_processed == system.sim.events_processed
        assert restored.stats_report() == system.stats_report()

    def test_mid_flood_on_the_direct_path_round_trips(self):
        # A lossless star: segments in flight are bare payloads, the
        # transport holds no per-pair state and the injector is sealed;
        # the restored copy keeps all three and runs in lock-step.
        system = RacSystem(RacConfig.small(link_bandwidth_bps=20e6), seed=11)
        system.bootstrap(8)
        system.run(1.0)
        in_flight = [entry[3][0] for entry in system.sim._queue if entry[2].__name__ == "_deliver"]
        assert in_flight and not any(type(p.payload) is Segment for p in in_flight)
        blob = snapshot_system(system, verify=True)
        restored = restore_system(blob)
        for of in (system, restored):
            assert of.transport.direct is True and of.faults.sealed
            assert not of.transport._senders and not of.transport._receivers
            assert not _pending(of, "_on_timeout")
        assert _pending(restored, "_deliver") == _pending(system, "_deliver")
        system.run(1.0)
        restored.run(1.0)
        assert restored.sim.events_processed == system.sim.events_processed
        assert restored.stats_report() == system.stats_report()
        with pytest.raises(SimulationError, match="sealed"):
            restored.set_loss_rate(0.01)

    @pytest.mark.parametrize("degraded", [False, True])
    def test_mid_flood_folded_deliveries_and_the_hop_property_round_trip(self, degraded):
        # The paper's ideal network: _at_router schedules _deliver itself,
        # so a mid-flood calendar holds folded deliveries and no hop
        # event. With fault windows open the snapshot also carries the
        # injector's edge timeline and the state of its present stretch;
        # the restored copy must cross the closing edges in lock-step.
        # (Timers above the windows: nobody is convicted for the outage.)
        system = RacSystem(timer_regime("detect", link_bandwidth_bps=20e6), seed=11)
        # A loss rate on a link nobody has draws nothing and keeps the
        # ARQ, whose watch entry, and the windows below, need it.
        system.set_loss_rate(0.5, node_id=-1)
        nodes = system.bootstrap(8)
        system.run(0.5)
        assert system.transport.direct is False
        if degraded:
            system.faults.schedule_degradation(nodes[2], 0.5, 0.7, 0.5)
            system.faults.schedule_outage(nodes[3], 0.5, 0.8)
            system.faults.schedule_partition(nodes[:2], nodes[4:], 0.5, 0.9)
        system.run(0.5)

        assert system.network.overtaking_free
        assert _pending(system, "_deliver")
        faults = system.faults
        if degraded:
            assert faults.edges == [0.5, 0.5, 0.5, 1.2, 1.3, 1.4]
            assert (faults.quiet_from, faults.quiet_until) == (0.5, 1.2)
            assert faults._down == {(nodes[3], "up"), (nodes[3], "down")}
            assert faults._open == faults.partitions != []
            assert system.network.downlinks[nodes[2]].rate_factor == 0.5
        else:
            assert not faults.edges and not _pending(system, "_enqueue_downlink")
        blob = snapshot_system(system, verify=True)
        restored = restore_system(blob)
        assert restored.network.overtaking_free
        assert restored.stats_report() == system.stats_report()
        for name in ("edges", "quiet_from", "quiet_until", "_down", "_open", "outages"):
            assert getattr(restored.faults, name) == getattr(faults, name)
        for name in ("_deliver", "_enqueue_downlink", "_at_router", "_scale_links"):
            assert _pending(restored, name) == _pending(system, name)
        # every entry comes back an exact list nobody owns, the ARQ's
        # watch included
        assert {(type(event), event[4]) for event in restored.sim._queue} == {(list, None)}
        assert _pending(restored, "_on_timeout") == _pending(system, "_on_timeout") != []
        for _ in range(4):
            system.run(0.25)
            restored.run(0.25)
            assert restored.sim.events_processed == system.sim.events_processed
            assert restored.stats_report() == system.stats_report()
            assert restored.faults.quiet_from == faults.quiet_from
        assert _pending(restored, "_deliver") == _pending(system, "_deliver")
        if degraded:
            # every window has closed, and the closing edge found the
            # restored copy of the Link its opening edge had scaled
            assert faults.quiet_until == float("inf") and not faults._down and not faults._open
            for of in (system, restored):
                assert of.network.downlinks[nodes[2]].rate_factor == 1.0
                assert of.stats_report()["net_dropped_outage"] > 0

    def test_pending_fired_and_cancelled_events_round_trip(self):
        sim = Simulator()
        fired = sim.timer(0.5, _noop)
        pending = sim.timer(2.0, _noop)
        dead = sim.timer(3.0, _noop)
        sim.schedule(2.5, _noop)
        sim.run(until=1.0)
        dead.cancel()
        clone, (fired_c, pending_c, dead_c) = restore_system(
            snapshot_system((sim, [fired, pending, dead]), verify=True)
        )
        assert type(pending_c) is ScheduledEvent and pending_c in clone._queue
        assert (pending_c.time, pending_c.seq, pending_c.callback) == (2.0, 1, _noop)
        assert pending_c[4] is clone and dead_c[4] is None
        (hop,) = [event for event in clone._queue if event[0] == 2.5]
        assert type(hop) is list and hop == [2.5, 3, _noop, (), None]
        assert dead_c.cancelled and not pending_c.cancelled
        for event in (fired_c, dead_c):
            event.cancel()  # neither is pending any more: no-ops
        assert (clone.events_cancelled, clone._cancelled_pending) == (1, 1)
        pending_c.cancel()
        assert clone.events_cancelled == 2
        clone.run()
        assert clone.events_processed == 2 and clone.pending_events() == 0

    def test_two_identically_seeded_runs_snapshot_identically(self):
        assert snapshot_system(_mid_run_system(seed=5)) == snapshot_system(
            _mid_run_system(seed=5)
        )

    def test_different_seeds_snapshot_differently(self):
        assert snapshot_system(_mid_run_system(seed=5)) != snapshot_system(
            _mid_run_system(seed=6)
        )

    def test_snapshotting_does_not_perturb_the_live_run(self):
        untouched = _mid_run_system()
        snapshotted = _mid_run_system()
        snapshot_system(snapshotted, verify=True)
        untouched.run(2.0)
        snapshotted.run(2.0)
        assert untouched.now == snapshotted.now
        assert untouched.sim.events_processed == snapshotted.sim.events_processed
        assert untouched.stats_report() == snapshotted.stats_report()

    @pytest.mark.parametrize("wrap", [lambda s: s, lambda s: (s, {"epoch_done": 0})], ids=["bare", "pair"])
    def test_closing_the_canonical_copy_never_touches_the_original(self, wrap):
        # snapshot_system closes the copy it canonicalises through (and
        # the restore it verifies); the system snapshotted, continued and
        # closed reports exactly what one never snapshotted does.
        untouched, snapshotted = _mid_run_system(), _mid_run_system()
        snapshot_system(wrap(snapshotted), verify=True)
        assert snapshotted.nodes and snapshotted.sim.pending_events()
        for system in (untouched, snapshotted):
            system.run(2.0)
            system.close()
        assert snapshotted.stats_report() == untouched.stats_report()

    def test_restored_system_continues_like_the_original(self):
        original = _mid_run_system()
        restored = restore_system(snapshot_system(original))
        original.run(2.0)
        restored.run(2.0)
        assert restored.now == original.now
        assert restored.sim.events_processed == original.sim.events_processed
        assert restored.stats_report() == original.stats_report()
        for node_id in original.nodes:
            assert restored.nodes[node_id].delivered == original.nodes[node_id].delivered


class _Holder:
    """Two attributes that may alias one container."""

    def __init__(self, a, b):
        self.a = a
        self.b = b


class TestCanonicalSets:
    """What the persistent-id set encoding has to keep (module docstring)."""

    def test_set_referenced_twice_restores_as_one_object(self):
        shared = {"n3", "n1", "n2"}
        frozen = frozenset({7, 8})
        restored = restore_system(snapshot_system([_Holder(shared, shared), _Holder(frozen, frozen)]))
        assert restored[0].a is restored[0].b and restored[0].a == shared
        assert restored[1].a is restored[1].b and restored[1].a == frozen
        restored[0].a.add("n4")
        assert "n4" in restored[0].b

    def test_equal_but_distinct_sets_stay_distinct(self):
        restored = restore_system(snapshot_system(_Holder({1, 2}, {1, 2})))
        assert restored.a == restored.b and restored.a is not restored.b

    @pytest.mark.parametrize(
        "value",
        [
            set(),
            frozenset(),
            {frozenset({"a", "b"}): 1, frozenset(): 2},
            ({"k": {3, 1, 2}}, "tail"),
            {frozenset({1, frozenset({2, "x"})}), frozenset({b"y"})},
            {("n", 1), ("n", 10), ("n", 2), 5, "s"},
        ],
        ids=["empty-set", "empty-frozenset", "frozenset-keys", "dict-in-tuple", "nested", "mixed"],
    )
    def test_set_shapes_round_trip_equal_and_byte_stable(self, value):
        blob = snapshot_system(value, verify=True)
        restored = restore_system(blob)
        assert restored == value and type(restored) is type(value)
        assert snapshot_system(restored) == blob

    def test_set_bytes_ignore_insertion_history(self):
        grown = set(range(0, 4000, 7))
        for extra in range(5000, 9000):
            grown.add(extra)
        for extra in range(5000, 9000):
            grown.discard(extra)  # same items, a much larger table
        assert snapshot_system(grown) == snapshot_system(set(range(0, 4000, 7)))

    def test_object_held_by_its_own_set_round_trips(self):
        holder = _Holder(None, None)
        holder.a = {holder}
        restored = restore_system(snapshot_system(holder, verify=True))
        assert restored.a == {restored}

    def test_set_entered_before_its_member_is_a_snapshot_error(self):
        # Reached set-first, the member's back-reference names a set the
        # loader has not built yet; that must not pass for a snapshot.
        holder = _Holder(None, None)
        holder.a = {holder}
        with pytest.raises(SnapshotError, match="referenced before it is built"):
            snapshot_system(holder.a)

    def test_shard_snapshot_is_identical_across_hash_seeds(self):
        """A str set iterates in PYTHONHASHSEED order; the blob must not
        follow it. (A shard's own sets hold ints, hence the labels.)"""
        script = (
            "import hashlib\n"
            "from repro.scenario import Scenario\n"
            "from repro.simnet.shard import build_shard_system, plan_shard_inputs\n"
            "from repro.simnet.snapshot import snapshot_system\n"
            "scenario = Scenario.from_params({'nodes': 64, 'horizon': 2.0}, 7, 'scale')\n"
            "system = build_shard_system(plan_shard_inputs(scenario, 2)[0])\n"
            "system.run(0.8)\n"
            "labels = {f'node-{node_id}' for node_id in system.nodes}\n"
            "print(hashlib.sha256(snapshot_system((system, labels))).hexdigest())\n"
            "print(list(labels))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(done.stdout.splitlines())
        (digest_1, order_1), (digest_2, order_2) = outputs
        assert order_1 != order_2  # the two processes really iterate differently
        assert len(digest_1) == 64 and digest_1 == digest_2


class TestSnapshotErrors:
    def test_restore_rejects_wrong_magic(self):
        with pytest.raises(SnapshotError, match="bad magic"):
            restore_system(b"NOTASNAP" + pickle.dumps(object))

    def test_restore_rejects_truncated_blob(self):
        with pytest.raises(SnapshotError):
            restore_system(SNAPSHOT_MAGIC[:4])

    def test_old_format_blob_names_the_version_mismatch(self, tmp_path):
        # The body is what a RACSNAP/2 calendar entry looked like: a
        # ScheduledEvent built bare and handed its dataclass slot state,
        # which today's list-backed record cannot take. The header check
        # must turn it away before the unpickler gets that far.
        # A RACSNAP/3 predecessor monitor (expected sets, a heap, the
        # ever-growing checked set) does not fit today's either, and a
        # RACSNAP/4 star would come back without ``overtaking_free``.
        # A RACSNAP/7 receipt is a ``MessageRecord`` and a RACSNAP/8
        # registry holds ``Counter`` objects; neither class exists now.
        # A RACSNAP/9 node carries opaque-peel sets it has no slot for.
        # A RACSNAP/10 hop would even unpickle, as a cancellable entry
        # that holds its simulator: only the header can turn it away.
        # A RACSNAP/11 unacknowledged segment holds a timer, not a ticket.
        # A RACSNAP/12 key pair unpickles without its sealed-box header.
        # A RACSNAP/13 transport unpickles without its path choice.
        # A RACSNAP/14 tracker names a node function that is gone.
        # A RACSNAP/15 tracker holds two accuser tallies it has no slot for.
        # A RACSNAP/16 tracker holds kindless notifier sets it has no slot for.
        # A RACSNAP/17 receipt is a key tuple with no interned bits to read it.
        body = pickle.dumps((_Rac2Event(), _Rac3Monitor()))
        for stale in (_Rac2Event(), _Rac3Monitor()):
            with pytest.raises(AttributeError):
                pickle.loads(pickle.dumps(stale))
        rac9 = pickle.dumps(_Rac9Node())
        with pytest.raises(AttributeError, match="_opaque_group_peels"):
            pickle.loads(rac9)
        rac7 = _rac7_receipts()
        with pytest.raises(AttributeError, match="MessageRecord"):
            pickle.loads(rac7)
        rac8 = _rac8_registry()
        with pytest.raises(AttributeError, match="Counter"):
            pickle.loads(rac8)
        rac10 = _rac10_calendar()
        (hop,) = pickle.loads(rac10)._queue
        assert type(hop) is ScheduledEvent and hop[4] is not None
        rac11 = _rac11_outstanding()
        with pytest.raises(AttributeError, match="timer"):
            pickle.loads(rac11)
        rac12 = _rac12_keypair()
        with pytest.raises(AttributeError, match="_header"):
            pickle.loads(rac12).open(b"S")
        rac13 = _rac13_transport()
        with pytest.raises(AttributeError, match="direct"):
            pickle.loads(rac13).send(1, 2, b"x", 10)
        rac14 = _rac14_tracker()
        with pytest.raises(AttributeError, match="_predecessor_threshold"):
            pickle.loads(rac14)
        rac15 = _rac15_tracker()
        with pytest.raises(AttributeError, match="_predecessor_accusers"):
            pickle.loads(rac15)
        rac16 = _rac16_tracker()
        with pytest.raises(AttributeError, match="_notifiers"):
            pickle.loads(rac16)
        rac17 = _rac17_receipts()
        with pytest.raises(AttributeError, match="_bits"):
            pickle.loads(rac17).copies_from(7, (4, 1))
        bodies = {version: body for version in ("1", "2", "3", "4", "5", "6")}
        stale = {**bodies, "7": rac7, "8": rac8, "9": rac9, "10": rac10, "11": rac11, "12": rac12}
        stale["13"], stale["14"], stale["15"], stale["16"] = rac13, rac14, rac15, rac16
        stale["17"] = rac17
        for version, stale_body in stale.items():
            old = f"RACSNAP/{version}\n".encode() + stale_body
            with pytest.raises(
                SnapshotError, match=f"version mismatch: blob is RACSNAP/{version},.*RACSNAP/18"
            ):
                restore_system(old)
            path = tmp_path / "old.snap"
            path.write_bytes(old)
            with pytest.raises(SnapshotError, match="version mismatch"):
                load_snapshot(str(path))

    def test_every_truncation_is_a_snapshot_error(self):
        blob = snapshot_system(_Holder({"a", "b"}, [frozenset({1}), b"x" * 40]))
        for cut in range(len(blob)):
            with pytest.raises(SnapshotError):
                restore_system(blob[:cut])

    def test_bit_flips_never_raise_a_foreign_exception(self):
        blob = snapshot_system(_mid_run_system(nodes=4))
        body = len(SNAPSHOT_MAGIC)
        # every byte near the head (opcodes, frame length, globals) and a
        # stride through the rest; a flip inside a payload may still load
        positions = list(range(body, body + 200)) + list(range(body + 200, len(blob), 251))
        for position in positions:
            for bit in (0x01, 0x80):
                mutated = bytearray(blob)
                mutated[position] ^= bit
                try:
                    restore_system(bytes(mutated))
                except SnapshotError:
                    pass

    def test_dangling_set_reference_is_a_snapshot_error(self):
        # a well-formed pickle whose persistent id names a set nobody wrote
        body = pickle.PROTO + bytes([5]) + pickle.BININT1 + bytes([9]) + pickle.TUPLE1
        body += pickle.BINPERSID + pickle.STOP
        with pytest.raises(SnapshotError, match="corrupt"):
            restore_system(SNAPSHOT_MAGIC + body)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(str(tmp_path / "missing.snap"))


class TestSnapshotFiles:
    def test_save_load_round_trip(self, tmp_path):
        system = _mid_run_system()
        path = str(tmp_path / "run.snap")
        size = save_snapshot(system, path, verify=True)
        assert load_snapshot(path).now == system.now
        with open(path, "rb") as fh:
            blob = fh.read()
        assert len(blob) == size
        assert blob.startswith(SNAPSHOT_MAGIC)

    def test_save_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "run.snap"
        save_snapshot(_mid_run_system(), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["run.snap"]

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_failed_write_unlinks_the_tmp_file(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "run.snap"
        save_snapshot({"epoch": 0}, str(path))

        def boom(*_args, **_kwargs):
            raise OSError(28, "No space left on device")

        if failing == "fsync":
            monkeypatch.setattr("repro.simnet.snapshot.os.fsync", boom)
        else:
            monkeypatch.setattr("repro.simnet.snapshot.os.replace", boom)
        with pytest.raises(OSError):
            save_snapshot({"epoch": 1}, str(path))
        # no tmp litter, and the previous checkpoint is intact
        assert [p.name for p in tmp_path.iterdir()] == ["run.snap"]
        assert load_snapshot(str(path)) == {"epoch": 0}

    def test_plain_objects_snapshot_too(self, tmp_path):
        # Checkpoints store (system, progress) tuples, not bare systems.
        payload = ({"t_done": 1.5}, [1, 2, 3])
        path = str(tmp_path / "obj.snap")
        save_snapshot(payload, path, verify=True)
        assert load_snapshot(path) == payload
