"""Sharded-vs-monolithic equivalence and merge-layer guarantees.

The sharded simulator's contract (DESIGN.md §14): same spec, same
seed — the delivered-payload multiset and the eviction set match the
monolithic run exactly; the cross-shard schedule (barrier contents and
per-shard fingerprints) is byte-identical across repeat runs; and an
eviction exported by one shard is applied in every other shard within
one epoch of the barrier that carried it.
"""

import json
import os

import pytest

from repro.groups import plan_bundles, snapshot_groups
from repro.orchestrator.sharded import run_sharded, verify_sharded
from repro.simnet.shard import ScaleSpec, plan_population


SPEC = ScaleSpec(nodes=24, num_shards=2, seed=3, horizon=3.0)
EVICT_SPEC = ScaleSpec(
    nodes=24, num_shards=2, seed=3, horizon=6.0, deviants={1: "silent-relay"}
)


@pytest.fixture(scope="module")
def evict_run(tmp_path_factory):
    """EVICT_SPEC sharded once: (outcome, run directory)."""
    run_dir = tmp_path_factory.mktemp("evict") / "run"
    return run_sharded(EVICT_SPEC, str(run_dir), serial=True), run_dir


class TestOutcomeEquivalence:
    def test_sharded_matches_monolithic(self, tmp_path):
        outcome = run_sharded(SPEC, str(tmp_path / "run"), serial=True)
        report = verify_sharded(outcome)
        assert report.equivalent, report.render()
        assert len(outcome.delivered) > 0

    def test_eviction_equivalence(self, evict_run):
        outcome, _run_dir = evict_run
        report = verify_sharded(outcome)
        assert report.equivalent, report.render()
        assert len(outcome.evicted) == 1
        (record,) = outcome.evicted.values()
        assert record["kind"] == "relay"
        # spec.scenario() is the object both sides lower: every shard
        # through build_shard_system, the oracle through run_scenario.
        mono = report.monolithic
        assert mono.scenario == EVICT_SPEC.scenario() and mono.substrate == "sim"
        assert set(int(k) for k in outcome.evicted) == {e.accused for e in mono.evictions}
        assert mono.deviant_ids == tuple(int(k) for k in outcome.evicted) and mono.ok


class TestCoalitionEquivalence:
    # A shield coalition spanning shard bundles: the coordinator is
    # rebuilt per process from the ScaleSpec planning data, so the
    # sharded eviction set must match the monolithic one exactly
    # (DESIGN.md §17). Deliveries are compared too — no plan, so the
    # full multiset contract applies.
    COALITION_SPEC = ScaleSpec(
        nodes=64,
        num_shards=4,
        seed=3,
        horizon=8.0,
        coalition={"mode": "shield", "members": [4, 20, 36, 52]},
    )

    def test_cross_bundle_coalition_eviction_equivalence(self, tmp_path):
        spec = self.COALITION_SPEC
        outcome = run_sharded(spec, str(tmp_path / "run"), serial=True)
        report = verify_sharded(outcome)
        assert report.equivalent, report.render()

        # The planted members must actually span bundles, or the test
        # would not exercise the cross-shard consistency contract.
        _config, materials, directory = plan_population(spec)
        member_ids = [materials[i - 1].node_id for i in (4, 20, 36, 52)]
        gid_of = {m.node_id: directory.group_for_id(m.node_id).gid for m in materials}
        bundles = plan_bundles(snapshot_groups(directory), spec.num_shards)
        bundle_of = {
            g.gid: shard for shard, bundle in enumerate(bundles) for g in bundle
        }
        member_bundles = {bundle_of[gid_of[nid]] for nid in member_ids}
        assert len(member_bundles) >= 2

        # Every eviction is a coalition member, and the monolithic
        # engine convicts the identical set.
        sharded_evicted = {int(k) for k in outcome.evicted}
        assert sharded_evicted == {e.accused for e in report.monolithic.evictions}
        assert sharded_evicted and sharded_evicted <= set(member_ids)


class TestBarrierDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = run_sharded(SPEC, str(tmp_path / "a"), serial=True)
        second = run_sharded(SPEC, str(tmp_path / "b"), serial=True)
        assert first.shard_fingerprints == second.shard_fingerprints
        assert first.merged_fingerprint == second.merged_fingerprint
        # The barrier files themselves — the cross-shard schedule — must
        # be byte-identical, not merely semantically equal.
        for epoch in range(SPEC.epoch_count):
            name = os.path.join("barriers", f"epoch{epoch:03d}.json")
            a = open(tmp_path / "a" / name, "rb").read()
            b = open(tmp_path / "b" / name, "rb").read()
            assert a == b

    def test_different_seed_diverges(self, tmp_path):
        other = ScaleSpec(nodes=24, num_shards=2, seed=4, horizon=3.0)
        first = run_sharded(SPEC, str(tmp_path / "a"), serial=True)
        second = run_sharded(other, str(tmp_path / "b"), serial=True)
        assert first.merged_fingerprint != second.merged_fingerprint


class TestBlacklistDissemination:
    def test_eviction_reaches_every_shard_within_one_epoch(self, evict_run):
        outcome, run_dir = evict_run
        (evicted_id,) = (int(k) for k in outcome.evicted)
        record = outcome.evicted[str(evicted_id)]

        # The eviction must appear in exactly one shard's export file
        # for the epoch that contains its timestamp...
        evict_epoch = min(
            e for e in range(EVICT_SPEC.epoch_count)
            if record["at"] <= EVICT_SPEC.epoch_end(e)
        )
        exporters = []
        for shard in range(EVICT_SPEC.num_shards):
            body = json.load(
                open(run_dir / "exports" / f"shard{shard:03d}.epoch{evict_epoch:03d}.json")
            )
            if any(r["node"] == evicted_id for r in body["exports"]):
                exporters.append(shard)
        assert len(exporters) == 1

        # ...and in the *next* epoch's barrier, after which every other
        # shard has applied it (foreign_evictions_applied counts them).
        barrier = json.load(
            open(run_dir / "barriers" / f"epoch{evict_epoch + 1:03d}.json")
        )
        assert any(r["node"] == evicted_id for r in barrier["records"])
        applied = sum(
            summary["stats"].get("foreign_evictions_applied", 0)
            for summary in outcome.per_shard
        )
        assert applied == EVICT_SPEC.num_shards - 1
