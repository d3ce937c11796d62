"""Sharded-vs-monolithic equivalence and merge-layer guarantees.

The sharded simulator's contract (DESIGN.md §4): same scenario, same
seed — the delivered-payload multiset and the eviction set match the
monolithic run exactly; the cross-shard schedule (barrier contents and
per-shard fingerprints) is byte-identical across repeat runs; and an
eviction exported by one shard is applied in every other shard within
one epoch of the barrier that carried it.
"""

import dataclasses
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
    write_sharded_manifest,
)
from repro.scenario import Scenario, compare_outcomes, plant_behaviors, run_scenario, traffic_sends
from repro.simnet.shard import (
    ShardSystem,
    build_shard_system,
    epoch_ends,
    filter_plan_events,
    plan_population,
)
from repro.simnet.snapshot import snapshot_system


def scale(seed: int, **params) -> Scenario:
    """A ``scale`` harness scenario."""
    return Scenario.from_params(params, seed, "scale")


SCENARIO = scale(3, nodes=24, horizon=3.0)
# A silent relay at creation index 0.
EVICT_SCENARIO = dataclasses.replace(scale(3, nodes=24, horizon=6.0), deviants={0: "silent-relay"})


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
    """EVICT_SCENARIO sharded once: (outcome, run directory)."""
    run_dir = tmp_path_factory.mktemp("evict") / "run"
    return run_scenario(EVICT_SCENARIO, "sharded", run_dir=str(run_dir), serial=True), run_dir


class TestOutcomeEquivalence:
    def test_sharded_matches_monolithic(self):
        outcome = run_scenario(SCENARIO, "sharded", serial=True)
        equivalent, comparison = compare_outcomes(outcome, run_scenario(SCENARIO))
        assert equivalent, comparison
        assert len(outcome.deliveries) > 0

    def test_eviction_equivalence(self, evict_run):
        outcome, _run_dir = evict_run
        mono = run_scenario(EVICT_SCENARIO)
        equivalent, comparison = compare_outcomes(outcome, mono)
        assert equivalent, comparison
        (eviction,) = outcome.evictions
        assert eviction.kind == "relay"
        # The sharded run is judged as the monolithic one is: the planted
        # relay convicted, no honest node evicted.
        assert outcome.substrate == "sharded" and outcome.scenario == EVICT_SCENARIO
        assert outcome.ok and outcome.detected and outcome.honest_evictions == 0
        assert outcome.deviant_ids == (outcome.node_ids[0],) == (eviction.accused,)
        assert mono.substrate == "sim" and mono.ok
        assert mono.deviant_ids == outcome.deviant_ids == tuple(e.accused for e in mono.evictions)


class TestCoalitionEquivalence:
    # A shield coalition spanning shard bundles: the coordinator is
    # rebuilt per process from the scenario's planning data, so the
    # sharded eviction set must match the monolithic one exactly
    # (DESIGN.md §4). Deliveries are compared too — no plan, so the
    # full multiset contract applies.
    MEMBERS = (3, 19, 35, 51)
    COALITION_SCENARIO = dataclasses.replace(
        scale(3, nodes=64, horizon=8.0), coalition={"mode": "shield", "members": MEMBERS}
    )

    def test_cross_bundle_coalition_eviction_equivalence(self):
        scenario, shards = self.COALITION_SCENARIO, 4
        outcome = run_scenario(scenario, "sharded", shards=shards, serial=True)
        mono = run_scenario(scenario)
        equivalent, comparison = compare_outcomes(outcome, mono)
        assert equivalent, comparison

        # The planted members must actually span bundles, or the test
        # would not exercise the cross-shard consistency contract.
        _config, materials, directory = plan_population(scenario)
        member_ids = [materials[i].node_id for i in self.MEMBERS]
        gid_of = {m.node_id: directory.group_for_id(m.node_id).gid for m in materials}
        bundles = plan_bundles(snapshot_groups(directory), shards)
        bundle_of = {
            g.gid: shard for shard, bundle in enumerate(bundles) for g in bundle
        }
        member_bundles = {bundle_of[gid_of[nid]] for nid in member_ids}
        assert len(member_bundles) >= 2

        # Every eviction is a coalition member, and the monolithic
        # engine convicts the identical set.
        sharded_evicted = {e.accused for e in outcome.evictions}
        assert sharded_evicted == {e.accused for e in mono.evictions}
        assert sharded_evicted and sharded_evicted <= set(member_ids)


class TestBarrierDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = run_scenario(SCENARIO, "sharded", run_dir=str(tmp_path / "a"), serial=True)
        second = run_scenario(SCENARIO, "sharded", run_dir=str(tmp_path / "b"), serial=True)
        assert first.fingerprints == second.fingerprints
        # The barrier files themselves — the cross-shard schedule — must
        # be byte-identical, not merely semantically equal.
        for epoch in range(len(epoch_ends(SCENARIO.horizon, 1.0))):
            name = os.path.join("barriers", f"epoch{epoch:03d}.json")
            a = open(tmp_path / "a" / name, "rb").read()
            b = open(tmp_path / "b" / name, "rb").read()
            assert a == b

    def test_scaling_curve_n64_fingerprint_is_pinned(self):
        # The N=64 point of results/scaling_curve.txt, run serially: the
        # cross-shard schedule reproduces across commits, not only
        # between two runs of one.
        outcome = run_scenario(N64, "sharded", serial=True)
        assert outcome.fingerprints[-1] == committed_n64_merged_fingerprint()

    def test_different_seed_diverges(self):
        first = run_scenario(SCENARIO, "sharded", serial=True)
        second = run_scenario(scale(4, nodes=24, horizon=3.0), "sharded", serial=True)
        assert first.fingerprints[-1] != second.fingerprints[-1]


class TestBlacklistDissemination:
    def test_eviction_reaches_every_shard_within_one_epoch(self, evict_run):
        outcome, run_dir = evict_run
        (eviction,) = outcome.evictions
        ends = epoch_ends(EVICT_SCENARIO.horizon, 1.0)

        # The eviction must appear in exactly one shard's export file
        # for the epoch that contains its timestamp...
        evict_epoch = min(e for e, end in enumerate(ends) if eviction.at <= end)
        exporters = []
        for shard in range(2):
            body = json.load(
                open(run_dir / "exports" / f"shard{shard:03d}.epoch{evict_epoch:03d}.json")
            )
            if any(r["node"] == eviction.accused for r in body["exports"]):
                exporters.append(shard)
        assert len(exporters) == 1

        # ...and in the *next* epoch's barrier, after which every other
        # shard has applied it (foreign_evictions_applied counts them).
        barrier = json.load(
            open(run_dir / "barriers" / f"epoch{evict_epoch + 1:03d}.json")
        )
        assert any(r["node"] == eviction.accused for r in barrier["records"])
        assert outcome.counters.get("foreign_evictions_applied", 0) == 1  # the other shard


# The N=64 point of results/scaling_curve.txt (and of `make scale-smoke`).
N64 = scale(7, nodes=64, horizon=2.0)
N64_SHARD_PREFIXES = ["fc30bf7ed51ef340", "311eee9ed419b912"]
# rac_bench's sharded-serial-256 scenario at its default scale and seed
# 16, on 8 shards meeting every 1.5 s.
BENCH_256 = scale(
    16,
    nodes=256,
    horizon=3.0,
    join_settle_time=0.05,
    relay_timeout=2.0,
    propagation_jitter=1e-6 * (1.0 + random.Random(16).random()),
)


def replanned_shard(scenario, shards, shard_index):
    """Shard ``shard_index`` built the way each cell once built it: the
    whole population planned again, then cut down to its bundle."""
    config, materials, directory = plan_population(scenario)
    bundle = plan_bundles(snapshot_groups(directory), shards)[shard_index]
    local_ids = {m for group in bundle for m in group.members}
    system = ShardSystem(config, scenario.seed, shard_index, bundle)
    local_materials = [m for m in materials if m.node_id in local_ids]
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
        "scenario, shards, epoch",
        [(N64, 2, 1.0), (BENCH_256, 8, 1.5), (scale(3, nodes=24, key_backend="dh"), 2, 1.0)],
        ids=["n64", "bench256", "dh24"],
    )
    def test_a_shard_built_from_its_inputs_is_byte_identical(self, scenario, shards, epoch, tmp_path):
        write_sharded_manifest(str(tmp_path), scenario, shards, epoch)
        _write_shard_inputs(str(tmp_path))
        # A cell reads the scenario from the manifest, as the replanned
        # reference does: string identities from JSON reach the pickle.
        manifest, _shards, _epoch = load_sharded_manifest(str(tmp_path))
        for shard in range(shards):
            built = build_shard_system(_read_shard_inputs(str(tmp_path), shard))
            reference = replanned_shard(manifest, shards, shard)
            try:
                assert snapshot_system(built) == snapshot_system(reference), f"shard {shard}"
            finally:
                built.close()
                reference.close()

    def test_a_crashed_and_resumed_run_draws_each_identity_once(self, tmp_path, draws):
        run_dir = str(tmp_path / "run")
        # A pool worker dies in epoch 0 and its cell is retried; then a
        # coordinator re-enters the finished directory.
        crashed = run_scenario(N64, "sharded", run_dir=run_dir, workers=2, inject_crash=1)
        resumed = run_scenario(N64, "sharded", run_dir=run_dir, serial=True)
        for outcome in (crashed, resumed):
            assert [f[:16] for f in outcome.fingerprints[:-1]] == N64_SHARD_PREFIXES
            assert outcome.fingerprints[-1] == committed_n64_merged_fingerprint()
        assert draws() == N64.nodes
