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
from repro.simnet.engine import ScheduledEvent, Simulator
from repro.simnet.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    load_snapshot,
    restore_system,
    save_snapshot,
    snapshot_system,
    verify_roundtrip,
)


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
        (event.time, event.seq)
        for event in system.sim._queue
        if event.callback is not None and event.callback.__name__ == name
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


class TestSimulatorPickling:
    def test_sequence_counter_survives_pickling(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        clone = pickle.loads(pickle.dumps(sim))
        # The clone numbers its next event where the original stood.
        assert clone.schedule(3.0, _noop).seq == 2
        clone.run(until=5.0)
        assert clone.events_processed == 3
        assert clone.now == 5.0

    def test_original_counter_still_monotonic_after_getstate(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        pickle.dumps(sim)
        # Pickling must not disturb the live simulator's numbering.
        assert sim.schedule(2.0, _noop).seq == 1
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

    def test_snapshot_of_restore_is_identity(self):
        system = _mid_run_system()
        assert system.sim.pending_events() > 0  # events in flight
        blob = snapshot_system(system)
        assert snapshot_system(restore_system(blob)) == blob

    def test_mid_flood_deadlines_and_reserved_keys_round_trip(self):
        # 20 Mb/s links keep copies in flight, so the snapshot catches
        # monitors mid-debt: owed sets, deadlines carrying the reserved
        # key to fire at, and one armed check timer per monitor.
        system = RacSystem(RacConfig.small(link_bandwidth_bps=20e6), seed=11)
        system.bootstrap(8)
        system.run(1.0)

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

    @pytest.mark.parametrize("degraded", [False, True])
    def test_mid_flood_folded_deliveries_and_the_hop_property_round_trip(self, degraded):
        # The paper's ideal network: _at_router schedules _deliver itself,
        # so a mid-flood calendar holds folded deliveries and no hop
        # event. With fault windows open the snapshot also carries the
        # injector's edge timeline and the state of its present stretch;
        # the restored copy must cross the closing edges in lock-step.
        # (Timers above the windows: nobody is convicted for the outage.)
        system = RacSystem(timer_regime("detect", link_bandwidth_bps=20e6), seed=11)
        nodes = system.bootstrap(8)
        system.run(0.5)
        if degraded:
            system.degrade_bandwidth(nodes[2], duration=0.7, factor=0.5)
            system.inject_link_outage(nodes[3], duration=0.8)
            system.inject_partition(nodes[:2], nodes[4:], duration=0.9)
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
        assert restored.stats.transport is restored.transport
        for name in ("edges", "quiet_from", "quiet_until", "_down", "_open", "outages"):
            assert getattr(restored.faults, name) == getattr(faults, name)
        for name in ("_deliver", "_enqueue_downlink", "_at_router", "_scale_links"):
            assert _pending(restored, name) == _pending(system, name)
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
        fired = sim.schedule(0.5, _noop)
        pending = sim.schedule(2.0, _noop)
        dead = sim.schedule(3.0, _noop)
        sim.run(until=1.0)
        dead.cancel()
        clone, (fired_c, pending_c, dead_c) = restore_system(
            snapshot_system((sim, [fired, pending, dead]), verify=True)
        )
        assert type(pending_c) is ScheduledEvent and pending_c in clone._queue
        assert (pending_c.time, pending_c.seq, pending_c.callback) == (2.0, 1, _noop)
        assert dead_c.cancelled and not pending_c.cancelled
        for event in (fired_c, dead_c):
            event.cancel()  # neither is pending any more: no-ops
        assert (clone.events_cancelled, clone._cancelled_pending) == (1, 1)
        pending_c.cancel()
        assert clone.events_cancelled == 2
        clone.run()
        assert clone.events_processed == 1 and clone.pending_events() == 0

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
            "from repro.simnet.shard import ScaleSpec, build_shard_system\n"
            "from repro.simnet.snapshot import snapshot_system\n"
            "system = build_shard_system(ScaleSpec(nodes=64, num_shards=2, seed=7, horizon=2.0), 0)\n"
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
        body = pickle.dumps((_Rac2Event(), _Rac3Monitor()))
        for stale in (_Rac2Event(), _Rac3Monitor()):
            with pytest.raises(AttributeError):
                pickle.loads(pickle.dumps(stale))
        for version in ("1", "2", "3", "4", "5"):
            old = f"RACSNAP/{version}\n".encode() + body
            with pytest.raises(
                SnapshotError, match=f"version mismatch.*RACSNAP/{version}.*RACSNAP/6"
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
