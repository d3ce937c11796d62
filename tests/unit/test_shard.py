"""Unit tests for the group-sharded simulator (repro.simnet.shard).

Covers the partitioner (group snapshots, bundle planning, the
bundle-local directory), the ScaleSpec manifest, the shard system's
cross-shard hooks, and the cache-hygiene contract at shard-worker
boundaries.
"""

import weakref

import pytest

from repro.core.config import RacConfig, check_timers
from repro.crypto import clear_process_caches
from repro.crypto import dh
from repro.groups import (
    BundleDirectory,
    GroupSpec,
    ShardPartitionError,
    plan_bundles,
)
from repro.scenario import plant_behaviors, prepare
from repro.simnet.shard import (
    ScaleSpec,
    ZERO_FINGERPRINT,
    build_shard_system,
    canonical_blob,
    chain_fingerprint,
    epoch_step,
    filter_plan_events,
    plan_population,
    sort_barrier_records,
)


def _specs(weights):
    specs = []
    span = (1 << 128) // len(weights)
    for gid, weight in enumerate(weights, start=1):
        lo = (gid - 1) * span
        members = tuple(range(gid * 1000, gid * 1000 + weight))
        specs.append(GroupSpec(gid=gid, lo=lo, hi=lo + span - 1, members=members))
    return specs


class TestPlanBundles:
    def test_deterministic(self):
        specs = _specs([5, 3, 8, 2, 6])
        assert plan_bundles(specs, 2) == plan_bundles(specs, 2)

    def test_covers_every_group_once(self):
        specs = _specs([5, 3, 8, 2, 6, 4, 7])
        bundles = plan_bundles(specs, 3)
        seen = [g.gid for bundle in bundles for g in bundle]
        assert sorted(seen) == [g.gid for g in specs]

    def test_largest_first_balance(self):
        # Greedy largest-first onto the lightest bundle keeps the
        # heaviest bundle within 2x of the lightest for these weights.
        specs = _specs([9, 8, 7, 2, 2, 2, 2])
        bundles = plan_bundles(specs, 3)
        weights = sorted(sum(len(g.members) for g in bundle) for bundle in bundles)
        assert weights[-1] <= 2 * weights[0]

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            plan_bundles(_specs([4, 4]), 3)

    def test_groupspec_round_trip(self):
        spec = _specs([3])[0]
        assert GroupSpec.from_dict(spec.to_dict()) == spec


class TestBundleDirectory:
    def test_lookup_inside_bundle(self):
        specs = _specs([4, 4])
        directory = BundleDirectory(3, specs[:1])
        group = directory.group_for_id(specs[0].lo + 1)
        assert group.gid == specs[0].gid

    def test_lookup_outside_bundle_raises(self):
        specs = _specs([4, 4])
        directory = BundleDirectory(3, specs[:1])
        with pytest.raises(ShardPartitionError):
            directory.group_for_id(specs[1].lo + 1)

    def test_invariants_are_bundle_local(self):
        specs = _specs([4, 4, 4])
        directory = BundleDirectory(3, specs[::2])  # gids 1 and 3
        directory.check_invariants()  # holes between bundles are fine


class TestScaleSpec:
    def test_epoch_count_rounds_up(self):
        assert ScaleSpec(nodes=8, num_shards=1, horizon=2.5, epoch=1.0).epoch_count == 3
        assert ScaleSpec(nodes=8, num_shards=1, horizon=2.0, epoch=1.0).epoch_count == 2

    def test_epoch_end_clamped_to_horizon(self):
        spec = ScaleSpec(nodes=8, num_shards=1, horizon=2.5, epoch=1.0)
        assert spec.epoch_end(2) == 2.5

    def test_round_trip(self):
        spec = ScaleSpec(nodes=24, num_shards=2, seed=11, deviants={3: "silent-relay"})
        assert ScaleSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleSpec(nodes=2, num_shards=1)
        with pytest.raises(ValueError):
            ScaleSpec(nodes=8, num_shards=0)


class TestScaleSpecCoalition:
    def test_round_trip_with_coalition_and_plan(self):
        spec = ScaleSpec(
            nodes=64,
            num_shards=4,
            seed=7,
            plan="storm",
            coalition={"mode": "shield", "members": [4, 20, 36, 52]},
            config={"relay_timeout": 4.0, "predecessor_timeout": 4.0, "rate_window": 4.0},
        )
        assert ScaleSpec.from_dict(spec.to_dict()) == spec

    def test_plain_manifest_unchanged_by_new_fields(self):
        # Pre-coalition manifests (and their fingerprint chains) must
        # stay byte-identical: the new keys serialize only when used.
        body = ScaleSpec(nodes=24, num_shards=2).to_dict()
        assert "coalition" not in body and "plan" not in body

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown coalition mode"):
            ScaleSpec(nodes=16, num_shards=1, coalition={"mode": "bribe", "members": [1]})

    def test_member_index_bounds_checked(self):
        with pytest.raises(ValueError, match="outside population"):
            ScaleSpec(nodes=16, num_shards=1, coalition={"mode": "shield", "members": [17]})

    def test_frame_needs_victims(self):
        with pytest.raises(ValueError, match="victim"):
            ScaleSpec(nodes=16, num_shards=1, coalition={"mode": "frame", "members": [1, 2]})

    def test_member_deviant_overlap_rejected(self):
        with pytest.raises(ValueError, match="both coalition members"):
            ScaleSpec(
                nodes=16,
                num_shards=1,
                deviants={3: "silent-relay"},
                coalition={"mode": "shield", "members": [3, 5]},
            )

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="tsunami"):
            ScaleSpec(nodes=16, num_shards=1, plan="tsunami")

    def test_behaviors_share_one_coordinator_across_replicas(self):
        # Two processes planning the same spec must build coalitions
        # that agree on every decision: same roster, same rotation.
        spec = ScaleSpec(
            nodes=16,
            num_shards=2,
            seed=3,
            coalition={"mode": "stagger", "members": [2, 9], "rotation_period": 1.5},
        )
        config, materials, _directory = plan_population(spec)
        # The spec's 1-based members are the scenario's 0-based ones.
        a = plant_behaviors(spec.scenario(), config, materials)
        b = plant_behaviors(spec.scenario(), config, materials)
        assert set(a) == {1, 8}
        roster_a = a[1].coordinator.member_ids
        roster_b = b[8].coordinator.member_ids
        assert roster_a == roster_b == tuple(
            sorted(materials[i - 1].node_id for i in (2, 9))
        )
        for t in (0.0, 1.5, 7.3, 29.9):
            assert a[1].coordinator.active_member(t) == b[8].coordinator.active_member(t)


class TestBuildFaultPlan:
    def test_none_is_clean(self):
        spec = ScaleSpec(nodes=16, num_shards=1)
        assert not spec.scenario().fault_plan().events

    def test_storm_rejected_against_default_tight_timers(self):
        # RacConfig.small keeps 1s-ish misbehaviour timers; a storm's
        # healing windows would read as freeriding. The contract is
        # enforced at plan time, on the shard and on the monolithic
        # oracle alike, with an actionable message.
        spec = ScaleSpec(nodes=16, num_shards=1, plan="storm")
        with pytest.raises(ValueError, match="misbehaviour timers"):
            build_shard_system(spec, 0)
        with pytest.raises(ValueError, match="misbehaviour timers"):
            prepare(spec.scenario())

    def test_storm_accepted_with_raised_timers(self):
        spec = ScaleSpec(
            nodes=16,
            num_shards=1,
            plan="storm",
            config={
                "relay_timeout": 4.0,
                "predecessor_timeout": 4.0,
                "rate_window": 4.0,
            },
        )
        plan = spec.scenario().fault_plan()
        assert plan.events
        plan.validate(spec.nodes)
        check_timers(spec.build_config(), 0.25, plan=plan)


class TestFilterPlanEvents:
    def _plan(self):
        from repro.chaos.plan import FaultPlan

        plan = FaultPlan(seed=0, horizon=10.0)
        plan.crash_restart(2, at=1.0, downtime=1.0)
        plan.crash_restart(9, at=2.0, downtime=1.0)
        plan.partition((1, 2), (9, 10), at=3.0, duration=1.0)
        plan.partition((9,), (10,), at=4.0, duration=1.0)
        plan.loss(0.1, at=5.0, duration=1.0)  # global
        plan.loss(0.2, at=6.0, duration=1.0, node=9)
        return plan

    def test_local_node_events_survive_globals_kept(self):
        filtered = filter_plan_events(self._plan(), {1, 2})
        kinds = [(e.kind, e.node) for e in filtered.schedule()]
        assert ("crash", 2) in kinds
        assert ("crash", 9) not in kinds
        assert ("loss", None) in kinds  # global loss applies everywhere
        assert ("loss", 9) not in kinds

    def test_partition_intersected_needs_both_sides(self):
        filtered = filter_plan_events(self._plan(), {1, 2, 10})
        cuts = [e for e in filtered.schedule() if e.kind == "partition"]
        # First cut intersects to (1,2) vs (10,); second to nothing on
        # side a — a cut entirely between bundles is a no-op.
        assert len(cuts) == 1
        assert cuts[0].side_a == (1, 2) and cuts[0].side_b == (10,)

    def test_indices_stay_global(self):
        # The filtered plan compiles against the *full* node-id list,
        # so surviving events keep their global creation indices.
        filtered = filter_plan_events(self._plan(), {9, 10})
        crash = [e for e in filtered.schedule() if e.kind == "crash"]
        assert [e.node for e in crash] == [9]


class TestBarrierCanonicalisation:
    def test_sort_is_total_and_deterministic(self):
        records = [
            {"at": 1.0, "gid": 2, "node": 5, "kind": "eviction"},
            {"at": 0.5, "gid": 3, "node": 9, "kind": "eviction"},
            {"at": 1.0, "gid": 1, "node": 7, "kind": "eviction"},
            {"at": 1.0, "gid": 2, "node": 1, "kind": "eviction"},
        ]
        ordered = sort_barrier_records(records)
        key = [(r["at"], r["gid"], r["node"]) for r in ordered]
        assert key == sorted(key)
        assert sort_barrier_records(list(reversed(records))) == ordered

    def test_canonical_blob_is_key_order_independent(self):
        assert canonical_blob({"b": 1, "a": 2}) == canonical_blob({"a": 2, "b": 1})

    def test_chain_fingerprint_depends_on_history(self):
        one = chain_fingerprint(ZERO_FINGERPRINT, "alpha")
        two = chain_fingerprint(one, "beta")
        direct = chain_fingerprint(ZERO_FINGERPRINT, "beta")
        assert two != direct
        assert len(two) == 64


class TestShardSystem:
    def test_shards_partition_the_population(self):
        spec = ScaleSpec(nodes=24, num_shards=2, seed=3, horizon=1.0)
        systems = [build_shard_system(spec, k) for k in range(2)]
        ids = [sorted(s.nodes) for s in systems]
        assert not set(ids[0]) & set(ids[1])
        assert len(ids[0]) + len(ids[1]) == 24

    def test_epoch_step_emits_chained_fingerprints(self):
        spec = ScaleSpec(nodes=24, num_shards=2, seed=3, horizon=1.0, epoch=0.5)
        system = build_shard_system(spec, 0)
        _, fp1 = epoch_step(system, spec, 0, [], ZERO_FINGERPRINT)
        _, fp2 = epoch_step(system, spec, 1, [], fp1)
        assert fp1 != ZERO_FINGERPRINT
        assert fp2 != fp1

    def test_a_closed_system_is_freed_by_reference_counting(self):
        # A finished shard-epoch cell closes its system; dropping it must
        # then free the system and its nodes at once, not whenever the
        # cycle collector next walks the oldest generation. (The
        # simulator's own wiring stays cyclic, with an empty calendar.)
        spec = ScaleSpec(nodes=24, num_shards=2, seed=3, horizon=1.0, epoch=0.5)
        system = build_shard_system(spec, 0)
        epoch_step(system, spec, 0, [], ZERO_FINGERPRINT)
        assert system.sim.pending_events()
        alive = [weakref.ref(system)] + [weakref.ref(node.rng) for node in system.nodes.values()]
        system.close()
        assert not system.nodes and not system.sim.pending_events()
        del system
        assert [ref for ref in alive if ref() is not None] == []


class TestShardCacheHygiene:
    """Satellite: a worker picking up a shard must start cache-cold."""

    POISON = (0xDEAD, 160, 0xBEEF)  # no such (prime, exponent_bits, base)

    def _poison(self):
        # Both stores eager, one entry each, one column recoding cached.
        for store in (dh._BASE_STORE, dh._RECIPIENT_STORE):
            store[self.POISON] = 1
            store.eager = True
        dh._comb_columns(0xC0FFEE, 20)

    def _assert_cold(self):
        for store in (dh._BASE_STORE, dh._RECIPIENT_STORE):
            assert self.POISON not in store
            assert not store.eager, "a store left eager would table bases at their first trial"
        assert dh._comb_columns.cache_info().currsize == 0

    def test_run_shard_epoch_clears_stale_process_caches(self, tmp_path):
        from repro.orchestrator.sharded import run_sharded

        self._poison()
        try:
            spec = ScaleSpec(nodes=8, num_shards=1, seed=5, horizon=0.5, epoch=0.5)
            run_sharded(spec, str(tmp_path / "run"), serial=True)
            # run_shard_epoch resets process caches at shard pickup even
            # on the inline path, so the pre-existing entries cannot have
            # survived into (or influenced) the shard's run (sim keys: it
            # adds none of its own).
            self._assert_cold()
        finally:
            clear_process_caches()

    def test_worker_reset_hook_covers_kem_cache(self):
        from repro.orchestrator.workloads import reset_worker_caches

        self._poison()
        reset_worker_caches()
        assert not dh._BASE_STORE and not dh._RECIPIENT_STORE
        self._assert_cold()


class TestShardSnapshots:
    """The serial coordinator's dealings with ``simnet.snapshot``."""

    SPEC = ScaleSpec(nodes=8, num_shards=1, seed=5, horizon=0.5, epoch=0.5)

    @pytest.mark.parametrize("flag, expected", [({}, False), ({"verify_snapshots": True}, True)])
    def test_serial_run_forwards_verify_snapshots(self, tmp_path, monkeypatch, flag, expected):
        from repro.orchestrator import sharded
        from repro.simnet.snapshot import save_snapshot

        seen = []

        def recording_save(payload, path, verify=False):
            seen.append(verify)
            return save_snapshot(payload, path, verify=verify)

        monkeypatch.setattr(sharded, "save_snapshot", recording_save)
        sharded.run_sharded(self.SPEC, str(tmp_path / "run"), serial=True, **flag)
        assert seen == [expected] * self.SPEC.epoch_count

    def test_old_format_shard_snapshot_refuses_to_resume(self, tmp_path):
        import pickle

        from repro.orchestrator import ResultStore
        from repro.orchestrator.sharded import run_sharded
        from repro.simnet.snapshot import SnapshotError

        shards = tmp_path / "run" / "shards"
        shards.mkdir(parents=True)
        stale = (None, {"epoch_done": 0, "fingerprint": ZERO_FINGERPRINT, "last_exports": []})
        (shards / "shard000.snap").write_bytes(b"RACSNAP/1\n" + pickle.dumps(stale))
        # A raising shard cell is a failed record on the serial path too.
        with pytest.raises(RuntimeError, match="1 failed shard cells"):
            run_sharded(self.SPEC, str(tmp_path / "run"), serial=True)
        failed = [r for r in ResultStore(str(tmp_path / "run" / "results.jsonl")).records() if r.status == "failed"]
        assert len(failed) == 1 and "version mismatch" in failed[0].error
        assert failed[0].error.startswith(SnapshotError.__name__)

    def test_a_manifest_with_an_options_dict_still_loads(self, tmp_path):
        import json

        from repro.orchestrator.sharded import SHARDED_MANIFEST, load_sharded_manifest, write_sharded_manifest

        # Manifests once carried {"options": {"profile": ...}} beside the spec.
        body = {"schema": 1, "spec": self.SPEC.to_dict(), "options": {"profile": True}}
        (tmp_path / SHARDED_MANIFEST).write_text(json.dumps(body))
        assert load_sharded_manifest(str(tmp_path)) == self.SPEC
        write_sharded_manifest(str(tmp_path), self.SPEC)
        assert json.loads((tmp_path / SHARDED_MANIFEST).read_text()) == {"schema": 1, "spec": self.SPEC.to_dict()}
