"""Epoch-barrier coordination of a group-sharded run over the pool.

The coordinator (:func:`run_sharded`) drives ``num_shards``
sub-simulators (:class:`repro.simnet.shard.ShardSystem`) through
lock-step epochs. Each (shard, epoch) pair is one content-addressed
sweep cell of the ``shard_epoch`` workload, executed in this process
(``serial=True``) or across processes by one
:class:`~repro.orchestrator.pool.SweepOrchestrator` per epoch —
inheriting its outbox handoff, crash retry and exactly-once resume for
free.

The coordinator plans the population once, before epoch 0's barrier,
and writes each shard's build inputs (:class:`repro.simnet.shard.ShardInputs`:
its bundle, its members' identities and behaviours, the creation-order
id list and its traffic) to the run directory; an epoch-0 cell builds
its shard from that file alone, so a run plans N identities, not N per
shard.

Run-directory layout::

    <run_dir>/sharded.json                  spec manifest
    <run_dir>/inputs/shard<k>.pickle        per-shard build inputs (written once)
    <run_dir>/shards/shard<k>.snap          per-shard snapshot (epoch boundary)
    <run_dir>/barriers/epoch<e>.json        merged imports for epoch e
    <run_dir>/exports/shard<k>.epoch<e>.json
    <run_dir>/summary/shard<k>.json         final per-shard summary
    <run_dir>/results.jsonl + sweep outbox/checkpoints

Crash safety: a shard's snapshot stores ``(system, meta)`` where meta
carries ``epoch_done``, the epoch's exports and the running fingerprint
— a worker killed between its snapshot and its outbox write is retried
idempotently (the retry replays nothing, it re-emits the recorded
exports). A killed *coordinator* is resumed by re-running
:func:`run_sharded` on the same directory: completed cells are skipped
via the result store, barrier/export files are re-read from disk, and
the inputs are planned again only if one is missing (every file is
written tmp + rename, and a re-plan writes the same bytes).
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..simnet.shard import (
    ScaleSpec,
    ShardInputs,
    ZERO_FINGERPRINT,
    build_shard_system,
    canonical_blob,
    chain_fingerprint,
    epoch_step,
    merge_fingerprint,
    plan_shard_inputs,
    shard_summary,
    sort_barrier_records,
)
from ..scenario import Outcome, run_scenario
from ..simnet.snapshot import load_snapshot, save_snapshot
from ..simnet.stats import aggregate_stats_reports
from .grid import SweepGrid
from .pool import SweepOrchestrator
from .store import ResultStore
from .workloads import WorkerContext, reset_worker_caches

__all__ = [
    "SHARDED_MANIFEST",
    "ShardedOutcome",
    "EquivalenceReport",
    "write_sharded_manifest",
    "load_sharded_manifest",
    "run_shard_epoch",
    "run_sharded",
    "verify_sharded",
]

SHARDED_MANIFEST = "sharded.json"


# ---------------------------------------------------------------------------
# paths + manifest
# ---------------------------------------------------------------------------
def _inputs_path(run_dir: str, shard: int) -> str:
    return os.path.join(run_dir, "inputs", f"shard{shard:03d}.pickle")


def _snapshot_path(run_dir: str, shard: int) -> str:
    return os.path.join(run_dir, "shards", f"shard{shard:03d}.snap")


def _barrier_path(run_dir: str, epoch: int) -> str:
    return os.path.join(run_dir, "barriers", f"epoch{epoch:03d}.json")


def _export_path(run_dir: str, shard: int, epoch: int) -> str:
    return os.path.join(run_dir, "exports", f"shard{shard:03d}.epoch{epoch:03d}.json")


def _summary_path(run_dir: str, shard: int) -> str:
    return os.path.join(run_dir, "summary", f"shard{shard:03d}.json")


def _write_json(path: str, body: "Dict[str, Any]") -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _read_json(path: str) -> "Dict[str, Any]":
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_shard_inputs(run_dir: str) -> None:
    """Plan the manifest's run once and write every shard's inputs, each
    atomically. The plan is drawn from the spec the manifest returns,
    the one cells read: a config string from JSON is another object
    than the literal the key code uses, and a snapshot pickles a shared
    string once, so a plan from another spec object can move a shard's
    snapshot bytes."""
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    for inputs in plan_shard_inputs(load_sharded_manifest(run_dir)):
        path = _inputs_path(run_dir, inputs.shard_index)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


def _read_shard_inputs(run_dir: str, shard: int) -> ShardInputs:
    with open(_inputs_path(run_dir, shard), "rb") as fh:
        return pickle.load(fh)


def write_sharded_manifest(run_dir: str, spec: ScaleSpec) -> str:
    path = os.path.join(run_dir, SHARDED_MANIFEST)
    if os.path.exists(path):
        if load_sharded_manifest(run_dir).to_dict() != spec.to_dict():
            raise ValueError(
                f"{run_dir} already holds a different sharded run; "
                "use a fresh --run-dir or delete it"
            )
    _write_json(path, {"schema": 1, "spec": spec.to_dict()})
    return path


def load_sharded_manifest(run_dir: str) -> ScaleSpec:
    # Older manifests also carry an ``options`` dict; nothing reads it.
    body = _read_json(os.path.join(run_dir, SHARDED_MANIFEST))
    if body.get("schema") != 1:
        raise ValueError(f"unsupported sharded manifest schema {body.get('schema')!r}")
    return ScaleSpec.from_dict(body["spec"])


# ---------------------------------------------------------------------------
# the per-(shard, epoch) worker step
# ---------------------------------------------------------------------------
def run_shard_epoch(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """Advance one shard across one epoch (the ``shard_epoch`` workload).

    Deterministic and idempotent in ``(params, seed)``: state is loaded
    from the shard's snapshot, or built from the shard's inputs before
    its first epoch; an epoch already
    recorded as done in the snapshot's meta is *not* re-run, its stored
    exports are simply re-emitted — that is what makes crash retries
    after a completed snapshot converge instead of double-advancing.
    """
    # Satellite: shard pickup is a cache boundary. The pool's worker
    # entry resets too, but a long-lived worker (and the inline/serial
    # path) must not leak shared-base or key-derivation cache entries
    # from one shard into the next shard's timing-free determinism.
    reset_worker_caches()

    run_dir = str(params["run_dir"])
    shard = int(params["shard"])
    epoch = int(params["epoch"])
    spec = load_sharded_manifest(run_dir)
    snap_path = _snapshot_path(run_dir, shard)

    if os.path.exists(snap_path):
        system, meta = load_snapshot(snap_path)
    else:
        system = build_shard_system(_read_shard_inputs(run_dir, shard))
        meta = {"epoch_done": -1, "fingerprint": ZERO_FINGERPRINT, "last_exports": []}

    # The next cell restores its own copy; this one closes on every path.
    try:
        if meta["epoch_done"] + 1 < epoch:
            raise RuntimeError(
                f"shard {shard} asked to run epoch {epoch} but has only finished "
                f"epoch {meta['epoch_done']}; barriers must run in order"
            )

        if meta["epoch_done"] < epoch:
            barrier = _read_json(_barrier_path(run_dir, epoch))
            imports = barrier.get("records", [])
            ctx.maybe_crash()
            exports, fingerprint = epoch_step(system, spec, epoch, imports, meta["fingerprint"])
            meta = {"epoch_done": epoch, "fingerprint": fingerprint, "last_exports": exports}
            os.makedirs(os.path.dirname(snap_path), exist_ok=True)
            save_snapshot((system, meta), snap_path)
        else:
            exports = list(meta["last_exports"])

        _write_json(
            _export_path(run_dir, shard, epoch),
            {
                "shard": shard,
                "epoch": epoch,
                "exports": exports,
                "fingerprint": meta["fingerprint"],
            },
        )
        if epoch == spec.epoch_count - 1:
            _write_json(_summary_path(run_dir, shard), shard_summary(system, meta["fingerprint"]))

        deliveries = sum(len(node.delivered) for node in system.nodes.values())
        return {
            "sim_time_s": system.now,
            "events_processed": float(system.sim.events_processed),
            "deliveries": float(deliveries),
            "exports": float(len(exports)),
            "evictions": float(len(system.evicted)),
            "foreign_evictions": float(len(system.foreign_evicted)),
        }
    finally:
        system.close()


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------
@dataclass
class ShardedOutcome:
    """The merged result of one sharded run."""

    spec: ScaleSpec
    run_dir: str
    delivered: "List[str]"
    evicted: "Dict[str, Dict]"
    shard_fingerprints: "List[str]"
    merged_fingerprint: str
    events_processed: int
    wall_seconds: float
    stats: "Dict[str, float]" = field(default_factory=dict)
    per_shard: "List[Dict[str, Any]]" = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        return self.events_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def stats_report(self) -> "Dict[str, float]":
        """Deployment-wide counters: per-shard reports summed, not the
        coordinator's own (eventless) engine."""
        return dict(self.stats)

    def render(self) -> str:
        spec = self.spec
        lines = [
            f"nodes={spec.nodes} shards={spec.num_shards} epochs={spec.epoch_count} horizon={spec.horizon}s",
            f"delivered {len(self.delivered)} payloads, {len(self.evicted)} evicted, "
            f"{self.events_processed} events in {self.wall_seconds:.2f}s wall "
            f"({self.events_per_second:,.0f} events/s)",
        ]
        for shard, (fingerprint, summary) in enumerate(zip(self.shard_fingerprints, self.per_shard)):
            lines.append(
                f"  shard {shard}: groups={summary['groups']} nodes={summary['nodes']} "
                f"delivered={len(summary['delivered'])} {fingerprint[:16]}"
            )
        lines.append(f"merged fingerprint: {self.merged_fingerprint}")
        return "\n".join(lines)

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "spec": self.spec.to_dict(),
            "nodes": self.spec.nodes,
            "shards": self.spec.num_shards,
            "deliveries": len(self.delivered),
            "evictions": len(self.evicted),
            "events_processed": self.events_processed,
            "wall_seconds": round(self.wall_seconds, 3),
            "events_per_second": round(self.events_per_second, 1),
            "shard_fingerprints": list(self.shard_fingerprints),
            "merged_fingerprint": self.merged_fingerprint,
        }


def _epoch_grid(run_dir: str, spec: ScaleSpec, epoch: int) -> SweepGrid:
    return SweepGrid(
        "shard_epoch",
        axes={"shard": list(range(spec.num_shards))},
        seeds=[spec.seed],
        base_params={"run_dir": run_dir, "epoch": epoch},
    )


def run_sharded(
    spec: ScaleSpec,
    run_dir: str,
    workers: int = 2,
    serial: bool = False,
    inject_crash: int = 0,
) -> ShardedOutcome:
    """Run ``spec`` sharded under ``run_dir``; idempotent on resume."""
    run_dir = os.path.abspath(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    write_sharded_manifest(run_dir, spec)
    store = ResultStore(os.path.join(run_dir, "results.jsonl"))

    started = time.perf_counter()
    if not all(os.path.exists(_inputs_path(run_dir, k)) for k in range(spec.num_shards)):
        _write_shard_inputs(run_dir)
    barrier_digests: "List[str]" = []
    carried: "List[Dict]" = []
    for epoch in range(spec.epoch_count):
        records = sort_barrier_records(carried)
        barrier_body = {"epoch": epoch, "records": records}
        _write_json(_barrier_path(run_dir, epoch), barrier_body)
        barrier_digests.append(chain_fingerprint(ZERO_FINGERPRINT, canonical_blob(barrier_body)))

        status = SweepOrchestrator(
            _epoch_grid(run_dir, spec, epoch),
            store,
            run_dir,
            workers=max(1, min(workers, spec.num_shards)),
        ).run(serial=serial, inject_crash=inject_crash if epoch == 0 else 0)
        if status.failed:
            raise RuntimeError(
                f"sharded epoch {epoch} has {status.failed} failed shard cells; "
                f"see {store.path}"
            )
        carried = []
        for shard in range(spec.num_shards):
            body = _read_json(_export_path(run_dir, shard, epoch))
            carried.extend(body.get("exports", []))
    wall = time.perf_counter() - started

    summaries = [_read_json(_summary_path(run_dir, k)) for k in range(spec.num_shards)]
    delivered: "List[str]" = []
    evicted: "Dict[str, Dict]" = {}
    for summary in summaries:
        delivered.extend(summary["delivered"])
        evicted.update(summary["evicted"])
    delivered.sort()
    fingerprints = [summary["fingerprint"] for summary in summaries]
    stats = aggregate_stats_reports([summary["stats"] for summary in summaries])

    return ShardedOutcome(
        spec=spec,
        run_dir=run_dir,
        delivered=delivered,
        evicted=evicted,
        shard_fingerprints=fingerprints,
        merged_fingerprint=merge_fingerprint(fingerprints, barrier_digests),
        events_processed=int(stats.get("sim_events_processed", 0)),
        wall_seconds=wall,
        stats=stats,
        per_shard=summaries,
    )


# ---------------------------------------------------------------------------
# serial-vs-sharded equivalence (the oracle behind `repro scale verify`)
# ---------------------------------------------------------------------------
@dataclass
class EquivalenceReport:
    """Monolithic-vs-sharded comparison of one spec."""

    equivalent: bool
    sharded: ShardedOutcome
    monolithic: Outcome
    mismatches: "List[str]" = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"sharded:    {len(self.sharded.delivered)} delivered, "
            f"{len(self.sharded.evicted)} evicted, "
            f"{self.sharded.events_processed} events over "
            f"{self.sharded.spec.num_shards} shards",
            f"monolithic: {len(self.monolithic.deliveries)} delivered, "
            f"{len(self.monolithic.evictions)} evicted, "
            f"{self.monolithic.counters['sim_events_processed']} events",
            f"verdict:    {'EQUIVALENT' if self.equivalent else 'DIVERGED'}",
        ]
        lines.extend(f"  mismatch: {m}" for m in self.mismatches)
        return "\n".join(lines)


def verify_sharded(
    outcome: ShardedOutcome, *, evictions_only: bool = False
) -> EquivalenceReport:
    """Re-run the outcome's spec unsharded and compare the observables.

    Equivalence is defined on the protocol's outcomes — the delivered
    payload multiset and the eviction set (ids + groups + evidence
    kind) — not on event schedules, which legitimately interleave
    differently across engines (DESIGN.md §4).

    ``evictions_only`` relaxes the comparison to the eviction set — the
    right oracle under a fault plan, where Bernoulli loss windows draw
    from each engine's own RNG stream so the delivered multiset is not
    expected to match, but the accountability outcome still must.
    """
    mono = run_scenario(outcome.spec.scenario())
    delivered = [payload.hex() for payload in mono.delivered_multiset()]
    mismatches: "List[str]" = []
    if not evictions_only and delivered != outcome.delivered:
        only_mono = len(set(delivered) - set(outcome.delivered))
        only_shard = len(set(outcome.delivered) - set(delivered))
        mismatches.append(
            "delivered-payload multisets differ "
            f"(monolithic {len(delivered)} vs sharded {len(outcome.delivered)}; "
            f"{only_mono} only-monolithic, {only_shard} only-sharded)"
        )
    mono_evicted = {str(e.accused): (e.gid, e.kind) for e in mono.evictions}
    shard_evicted = {k: (v["gid"], v["kind"]) for k, v in outcome.evicted.items()}
    if mono_evicted != shard_evicted:
        mismatches.append(
            f"eviction sets differ (monolithic {sorted(mono_evicted)} "
            f"vs sharded {sorted(shard_evicted)})"
        )
    return EquivalenceReport(not mismatches, outcome, mono, mismatches)
