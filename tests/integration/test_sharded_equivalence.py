"""Sharded-vs-monolithic equivalence and merge-layer guarantees.

The sharded simulator's contract (DESIGN.md §4): same spec, same
seed — the delivered-payload multiset and the eviction set match the
monolithic run exactly; the cross-shard schedule (barrier contents and
per-shard fingerprints) is byte-identical across repeat runs; and an
eviction exported by one shard is applied in every other shard within
one epoch of the barrier that carried it.
"""

import json
import os
import random
import re

import pytest

from repro.core import identity
from repro.experiments.artefacts import RESULTS
from repro.groups import plan_bundles, snapshot_groups
from repro.orchestrator.sharded import (
    _read_shard_inputs,
    _write_shard_inputs,
    load_sharded_manifest,
    run_sharded,
    verify_sharded,
    write_sharded_manifest,
)
from repro.scenario import plant_behaviors, traffic_sends
from repro.simnet.shard import (
    ScaleSpec,
    ShardSystem,
    build_shard_system,
    filter_plan_events,
    plan_population,
)
from repro.simnet.snapshot import snapshot_system


SPEC = ScaleSpec(nodes=24, num_shards=2, seed=3, horizon=3.0)
EVICT_SPEC = ScaleSpec(
    nodes=24, num_shards=2, seed=3, horizon=6.0, deviants={1: "silent-relay"}
)


def committed_n64_merged_fingerprint() -> str:
    """The N=64 point's merged fingerprint as ``results/scaling_curve.txt``
    records it: the artefact is the one source of the pin, so a change
    that moves it re-records the row (``repro results check`` skips
    that slow row, and a copy of the value here could drift from it)."""
    text = (RESULTS / "scaling_curve.txt").read_text()
    block = text.split("N=64 (2 shards):", 1)[1]
    return re.search(r"^\s+merged ([0-9a-f]{64})$", block, re.MULTILINE).group(1)


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
    # (DESIGN.md §4). Deliveries are compared too — no plan, so the
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

    def test_scaling_curve_n64_fingerprint_is_pinned(self, tmp_path):
        # The N=64 point of results/scaling_curve.txt, run serially: the
        # cross-shard schedule reproduces across commits, not only
        # between two runs of one.
        spec = ScaleSpec(nodes=64, num_shards=2, seed=7, horizon=2.0)
        outcome = run_sharded(spec, str(tmp_path / "run"), serial=True)
        assert outcome.merged_fingerprint == committed_n64_merged_fingerprint()

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


# The N=64 point of results/scaling_curve.txt (and of `make scale-smoke`).
N64 = ScaleSpec(nodes=64, num_shards=2, seed=7, horizon=2.0)
N64_SHARD_PREFIXES = ["fc30bf7ed51ef340", "311eee9ed419b912"]
# rac_bench's sharded-serial-256 spec at its default scale and seed 16.
BENCH_256 = ScaleSpec(
    nodes=256,
    num_shards=8,
    seed=16,
    horizon=3.0,
    epoch=1.5,
    config={
        "join_settle_time": 0.05,
        "relay_timeout": 2.0,
        "propagation_jitter": 1e-6 * (1.0 + random.Random(16).random()),
    },
)


def replanned_shard(spec, shard_index):
    """Shard ``shard_index`` built the way each cell once built it: the
    whole population planned again, then cut down to its bundle."""
    config, materials, directory = plan_population(spec)
    bundle = plan_bundles(snapshot_groups(directory), spec.num_shards)[shard_index]
    local_ids = {m for group in bundle for m in group.members}
    system = ShardSystem(config, spec.seed, shard_index, bundle)
    local_materials = [m for m in materials if m.node_id in local_ids]
    scenario = spec.scenario()
    behaviors = plant_behaviors(scenario, config, materials)
    system.populate(
        local_materials, {i: b for i, b in behaviors.items() if materials[i].node_id in local_ids}
    )
    node_ids = [m.node_id for m in materials]
    for _at, src, dst, payload in traffic_sends(scenario, node_ids, directory):
        if node_ids[src] in local_ids:
            system.send(node_ids[src], node_ids[dst], payload)
    plan = scenario.fault_plan()
    if plan.events:
        local_indices = {m.index - 1 for m in local_materials}
        filter_plan_events(plan, local_indices).compile_sim(system, node_ids)
    return system


@pytest.fixture
def draws(monkeypatch, tmp_path):
    """Identities drawn from now on, by this process and by the pool
    workers it forks: each draw appends one byte to a tally file."""
    tally = tmp_path / "draws"
    tally.touch()
    draw = identity.generate_node_material

    def counted(*args):
        with open(tally, "ab") as fh:
            fh.write(b".")
        return draw(*args)

    monkeypatch.setattr(identity, "generate_node_material", counted)
    return lambda: tally.stat().st_size


class TestPlanOnce:
    """The coordinator plans the population; each shard builds from its inputs."""

    @pytest.mark.parametrize(
        "spec",
        [N64, BENCH_256, ScaleSpec(nodes=24, num_shards=2, seed=3, config={"key_backend": "dh"})],
        ids=["n64", "bench256", "dh24"],
    )
    def test_a_shard_built_from_its_inputs_is_byte_identical(self, spec, tmp_path):
        write_sharded_manifest(str(tmp_path), spec)
        _write_shard_inputs(str(tmp_path))
        # A cell reads the spec from the manifest, as the replanned
        # reference does: string identities from JSON reach the pickle.
        manifest = load_sharded_manifest(str(tmp_path))
        for shard in range(spec.num_shards):
            built = build_shard_system(_read_shard_inputs(str(tmp_path), shard))
            reference = replanned_shard(manifest, shard)
            try:
                assert snapshot_system(built) == snapshot_system(reference), f"shard {shard}"
            finally:
                built.close()
                reference.close()

    def test_a_crashed_and_resumed_run_draws_each_identity_once(self, tmp_path, draws):
        run_dir = str(tmp_path / "run")
        # A pool worker dies in epoch 0 and its cell is retried; then a
        # coordinator re-enters the finished directory.
        crashed = run_sharded(N64, run_dir, workers=2, inject_crash=1)
        resumed = run_sharded(N64, run_dir, serial=True)
        for outcome in (crashed, resumed):
            assert [f[:16] for f in outcome.shard_fingerprints] == N64_SHARD_PREFIXES
            assert outcome.merged_fingerprint == committed_n64_merged_fingerprint()
        assert draws() == N64.nodes
