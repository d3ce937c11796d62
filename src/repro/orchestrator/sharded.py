"""Epoch-barrier coordination of a group-sharded run over the pool.

:func:`run_shards` — what ``run_scenario(scenario, "sharded", ...)``
calls — drives ``shards`` sub-simulators
(:class:`repro.simnet.shard.ShardSystem`) through lock-step epochs.
Each (shard, epoch) pair is one content-addressed sweep cell of the
``shard_epoch`` workload, executed in this process (``serial=True``) or
across processes by one :class:`~repro.orchestrator.pool.SweepOrchestrator`
per epoch — inheriting its outbox handoff, crash retry and exactly-once
resume for free. It returns the shards' final summaries, which
:func:`~repro.scenario.run_scenario` judges as one run.

The coordinator plans the population once, before epoch 0's barrier,
and writes each shard's build inputs (:class:`repro.simnet.shard.ShardInputs`:
its bundle, its members' identities and behaviours and its traffic)
and the creation-order id list the judge reads to the run directory;
an epoch-0 cell builds its shard from its own file alone, so a run
plans N identities, not N per shard.

Run-directory layout::

    <run_dir>/sharded.json                  {"schema": 2, "scenario", "shards", "epoch"}
    <run_dir>/inputs/shard<k>.pickle        per-shard build inputs (written once)
    <run_dir>/inputs/node_ids.json          the population in creation order (written once)
    <run_dir>/shards/shard<k>.snap          per-shard snapshot (epoch boundary)
    <run_dir>/barriers/epoch<e>.json        merged imports for epoch e
    <run_dir>/exports/shard<k>.epoch<e>.json
    <run_dir>/summary/shard<k>.json         final per-shard summary (fingerprint, judge's record)
    <run_dir>/results.jsonl + sweep outbox/checkpoints

Crash safety: a shard's snapshot stores ``(system, meta)`` where meta
carries ``epoch_done``, the epoch's exports and the running fingerprint
— a worker killed between its snapshot and its outbox write is retried
idempotently (the retry replays nothing, it re-emits the recorded
exports). A killed *coordinator* is resumed by running the same
scenario on the same directory: completed cells are skipped via the
result store, barrier/export files are re-read from disk, and the
inputs are planned again only if one is missing (every file is
written tmp + rename, and a re-plan writes the same bytes).
"""

from __future__ import annotations

import json
import os
import pickle
import time
import types
from typing import Any, Dict, List, Tuple

from ..simnet.shard import (
    ShardInputs,
    ZERO_FINGERPRINT,
    build_shard_system,
    canonical_blob,
    chain_fingerprint,
    epoch_ends,
    epoch_step,
    merge_fingerprint,
    plan_shard_inputs,
    shard_summary,
    sort_barrier_records,
)
from ..scenario import Scenario, run_scenario
from ..simnet.snapshot import load_snapshot, save_snapshot
from .grid import SweepGrid
from .pool import SweepOrchestrator
from .store import ResultStore
from .workloads import WorkerContext, reset_worker_caches

__all__ = [
    "SHARDED_MANIFEST",
    "check_sharded",
    "write_sharded_manifest",
    "load_sharded_manifest",
    "run_shard_epoch",
    "run_shards",
]

SHARDED_MANIFEST = "sharded.json"


# ---------------------------------------------------------------------------
# paths + manifest
# ---------------------------------------------------------------------------
def _inputs_path(run_dir: str, shard: int) -> str:
    return os.path.join(run_dir, "inputs", f"shard{shard:03d}.pickle")


def _node_ids_path(run_dir: str) -> str:
    return os.path.join(run_dir, "inputs", "node_ids.json")


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
    """Plan the manifest's run once and write every shard's inputs and
    the creation-order node ids, each atomically. The plan is drawn
    from the scenario the manifest returns, the one cells read: a
    config string from JSON is another object than the literal the key
    code uses, and a snapshot pickles a shared string once, so a plan
    from another scenario object can move a shard's snapshot bytes."""
    scenario, shards, _epoch = load_sharded_manifest(run_dir)
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    planned = plan_shard_inputs(scenario, shards)
    for inputs in planned:
        path = _inputs_path(run_dir, inputs.shard_index)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    members = sorted((m for inputs in planned for m in inputs.materials), key=lambda m: m.index)
    _write_json(_node_ids_path(run_dir), {"node_ids": [m.node_id for m in members]})


def _read_shard_inputs(run_dir: str, shard: int) -> ShardInputs:
    with open(_inputs_path(run_dir, shard), "rb") as fh:
        return pickle.load(fh)


def check_sharded(scenario: Scenario, shards: int, epoch: float) -> None:
    """Refuse a sharded run before anything is written: a scenario field
    a shard cannot honour (:meth:`Scenario.check_substrate`), no shard,
    or an epoch that is not positive."""
    scenario.check_substrate("sharded")
    if shards < 1:
        raise ValueError("a sharded run needs at least one shard")
    if epoch <= 0:
        raise ValueError("the epoch must be positive")


def write_sharded_manifest(run_dir: str, scenario: Scenario, shards: int, epoch: float) -> str:
    path = os.path.join(run_dir, SHARDED_MANIFEST)
    if not os.path.exists(path):
        _write_json(path, {"schema": 2, "scenario": scenario.to_dict(), "shards": shards, "epoch": epoch})
    elif load_sharded_manifest(run_dir) != (scenario, shards, epoch):
        raise ValueError(
            f"{run_dir} already holds a different sharded run; use a fresh --run-dir or delete it"
        )
    return path


def load_sharded_manifest(run_dir: str) -> "Tuple[Scenario, int, float]":
    """(scenario, shards, epoch) of the run under ``run_dir``."""
    body = _read_json(os.path.join(run_dir, SHARDED_MANIFEST))
    if body.get("schema") != 2:
        raise ValueError(
            f"{run_dir} holds a sharded run of manifest schema {body.get('schema')!r}, which "
            "this version cannot resume; use a fresh --run-dir"
        )
    return Scenario.from_dict(body["scenario"]), body["shards"], body["epoch"]


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
    scenario, _shards, epoch_seconds = load_sharded_manifest(run_dir)
    ends = epoch_ends(scenario.horizon, epoch_seconds)
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
            exports, fingerprint = epoch_step(system, ends[epoch], epoch, imports, meta["fingerprint"])
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
        if epoch == len(ends) - 1:
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
def run_shards(
    scenario: Scenario,
    run_dir: str,
    *,
    shards: int,
    epoch: float,
    workers: int = 2,
    serial: bool = False,
    inject_crash: int = 0,
) -> "Tuple[List[int], List[Dict[str, Any]], List[str]]":
    """Run ``scenario`` on ``shards`` sub-simulators that meet every
    ``epoch`` simulated seconds, under ``run_dir``; idempotent on
    resume. Returns what the judge reads: the population's node ids in
    creation order, every shard's final summary, and the fingerprints
    (each shard's chain, then the merged one)."""
    check_sharded(scenario, shards, epoch)
    run_dir = os.path.abspath(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    write_sharded_manifest(run_dir, scenario, shards, float(epoch))
    store = ResultStore(os.path.join(run_dir, "results.jsonl"))

    planned = [_node_ids_path(run_dir)] + [_inputs_path(run_dir, k) for k in range(shards)]
    if not all(os.path.exists(path) for path in planned):
        _write_shard_inputs(run_dir)
    barrier_digests: "List[str]" = []
    carried: "List[Dict]" = []
    for index in range(len(epoch_ends(scenario.horizon, epoch))):
        records = sort_barrier_records(carried)
        barrier_body = {"epoch": index, "records": records}
        _write_json(_barrier_path(run_dir, index), barrier_body)
        barrier_digests.append(chain_fingerprint(ZERO_FINGERPRINT, canonical_blob(barrier_body)))

        grid = SweepGrid(
            "shard_epoch", axes={"shard": list(range(shards))}, seeds=[scenario.seed],
            base_params={"run_dir": run_dir, "epoch": index},
        )
        status = SweepOrchestrator(grid, store, run_dir, workers=max(1, min(workers, shards))).run(
            serial=serial, inject_crash=inject_crash if index == 0 else 0
        )
        if status.failed:
            raise RuntimeError(
                f"sharded epoch {index} has {status.failed} failed shard cells; "
                f"see {store.path}"
            )
        carried = []
        for shard in range(shards):
            body = _read_json(_export_path(run_dir, shard, index))
            carried.extend(body.get("exports", []))

    summaries = [_read_json(_summary_path(run_dir, k)) for k in range(shards)]
    fingerprints = [summary["fingerprint"] for summary in summaries]
    node_ids = _read_json(_node_ids_path(run_dir))["node_ids"]
    return node_ids, summaries, fingerprints + [merge_fingerprint(fingerprints, barrier_digests)]


def run_sharded(spec, run_dir: str, workers: int = 2, serial: bool = False):
    """``benchmarks/rac_bench``'s spelling of a sharded run (deleted with
    its adapter import, ROADMAP 4(b-i)): a
    :class:`~repro.simnet.shard.ScaleSpec` run, read back as it reads it."""
    started = time.perf_counter()
    outcome = run_scenario(
        spec.scenario(), "sharded", shards=spec.num_shards, epoch=spec.epoch, run_dir=run_dir,
        workers=workers, serial=serial,
    )
    *shard_fingerprints, merged = outcome.fingerprints
    return types.SimpleNamespace(
        delivered=[payload.hex() for payload in outcome.delivered_multiset()],
        evicted={str(e.accused): e._asdict() for e in outcome.evictions},
        shard_fingerprints=shard_fingerprints,
        merged_fingerprint=merged,
        stats=outcome.counters,
        events_processed=int(outcome.counters["sim_events_processed"]),
        wall_seconds=time.perf_counter() - started,
    )
