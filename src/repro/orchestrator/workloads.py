"""Sweepable experiment workloads.

A *workload* is a function ``fn(params, seed, ctx) -> metrics`` taking
one grid cell's parameter dict and seed, plus a :class:`WorkerContext`
that provides checkpointing and (test-only) fault injection. Metrics
must be a flat ``name -> number`` dict; the reserved key
``"sim_time_s"`` is lifted into the result record's own field.

Workload functions run inside pool worker *processes*; they must be
importable module-level callables (the pool ships them by name, never
by pickling closures) and deterministic in ``(params, seed)``: a
crashed worker is retried and a checkpointed run is resumed, and both
recovery paths assume re-execution converges on the same numbers.

The ``protocol`` workload is the flagship: a packet-level
:func:`repro.scenario.prepare`-d run that snapshots itself every
``ctx.checkpoint_interval`` sim-seconds via
:mod:`repro.simnet.snapshot`, so a SIGKILLed worker resumes mid-run
instead of starting over.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..simnet.snapshot import load_snapshot, save_snapshot

__all__ = [
    "WORKLOADS",
    "UnknownWorkloadError",
    "WorkerContext",
    "resolve_workload",
    "workload",
    "reset_worker_caches",
    "CRASH_EXIT_CODE",
]

#: Exit code of an *injected* worker crash (tests / `make sweep-smoke`);
#: distinguishable from ordinary failures in pool logs.
CRASH_EXIT_CODE = 73

WORKLOADS: "Dict[str, Callable[[Dict[str, Any], int, WorkerContext], Dict[str, float]]]" = {}


class UnknownWorkloadError(KeyError):
    """A sweep or campaign named a workload nobody registered.

    Subclasses :class:`KeyError` (the lookup that failed) but renders a
    usable message: the bad name plus every registered one, so a typo'd
    ``repro sweep run -e portocol`` tells you what it should have been.
    """

    def __init__(self, name: str) -> None:
        self.workload = name
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"unknown workload {self.workload!r}; registered workloads: "
            + ", ".join(sorted(WORKLOADS))
        )


def resolve_workload(name: str):
    """The registered workload function, or a typed, listing error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(name) from None


def workload(name: str):
    """Register a sweepable experiment under ``name``."""

    def register(fn):
        if name in WORKLOADS:
            raise ValueError(f"workload {name!r} is already registered")
        WORKLOADS[name] = fn
        return fn

    return register


def reset_worker_caches() -> None:
    """Reset per-process caches at a worker-run boundary.

    Sweep workers execute many runs back to back (and inherit a warm
    parent image under fork-start multiprocessing); clearing the crypto
    shared-base/derivation caches keeps each run deterministic in isolation and
    bounds worker memory across a long campaign.
    """
    from .. import crypto

    crypto.clear_process_caches()


@dataclass
class WorkerContext:
    """Checkpointing and fault-injection services for one cell attempt."""

    checkpoint_path: "Optional[str]" = None
    #: Sim-seconds between checkpoints; None/0 disables checkpointing.
    checkpoint_interval: "Optional[float]" = None
    attempt: int = 0
    #: Test-only chaos: the workload's ``maybe_crash()`` hard-exits the
    #: worker process once, exercising the retry/resume machinery.
    inject_crash: bool = False
    #: Run the byte-equality round-trip check on every checkpoint.
    verify_snapshots: bool = False
    checkpoints_written: int = field(default=0, init=False)

    def checkpoint(self, system: Any, progress: "Dict[str, Any]") -> None:
        """Persist ``(system, progress)`` atomically; a crash between
        two checkpoints costs at most one interval of re-simulation."""
        if self.checkpoint_path is None:
            return
        save_snapshot((system, progress), self.checkpoint_path, verify=self.verify_snapshots)
        self.checkpoints_written += 1

    def load_checkpoint(self) -> "Optional[Tuple[Any, Dict[str, Any]]]":
        if self.checkpoint_path is None or not os.path.exists(self.checkpoint_path):
            return None
        return load_snapshot(self.checkpoint_path)

    def clear_checkpoint(self) -> None:
        if self.checkpoint_path is not None and os.path.exists(self.checkpoint_path):
            os.remove(self.checkpoint_path)

    def maybe_crash(self) -> None:
        """Die here if this attempt carries an injected crash."""
        if self.inject_crash:
            # A real SIGKILL victim gets no cleanup either; flush
            # nothing, skip atexit, vanish mid-run.
            os._exit(CRASH_EXIT_CODE)


# ---------------------------------------------------------------------------
# scenario runs: one adapter per row of repro.scenario.HARNESSES, which
# holds each workload's defaults; Scenario.from_params documents the
# cell parameters they all read (any RacConfig field is an override)
# ---------------------------------------------------------------------------


def _counters(outcome, *names: str) -> "Dict[str, float]":
    return {name: float(outcome.counters.get(name, 0)) for name in names}


@workload("protocol")
def protocol_run(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """End-to-end RAC run: ``nodes``, ``duration`` sim-seconds, each node
    queueing ``messages`` anonymous messages to its ring successor.

    The run advances in checkpoint-interval chunks; each chunk boundary
    snapshots the prepared run (which carries its own clock), so an
    interrupted attempt resumes exactly where the last snapshot stood —
    the chunk schedule is deterministic, which makes the resumed run
    replay the uninterrupted one byte for byte.
    """
    from ..scenario import Scenario, prepare

    resumed = ctx.load_checkpoint()
    run = resumed[0] if resumed else prepare(Scenario.from_params(params, seed, "protocol"))
    duration = run.scenario.horizon

    first_chunk = True
    step = float(ctx.checkpoint_interval) if ctx.checkpoint_interval else duration
    while run.system.now < duration - 1e-12:
        run.run_to(min(duration, run.system.now + step))
        if run.system.now < duration - 1e-12:
            ctx.checkpoint(run, {"t_done": run.system.now})
        if first_chunk:
            first_chunk = False
            ctx.maybe_crash()

    outcome = run.outcome()
    return {
        **outcome.metrics(),
        "delivered_bytes": float(sum(len(payload) for _at, _node, payload in outcome.deliveries)),
        "events_processed": float(outcome.counters["sim_events_processed"]),
        **_counters(
            outcome, "net_packets_delivered", "net_packets_dropped", "transport_retransmits"
        ),
    }


def _judged_point(harness: str, params, seed: int, ctx: WorkerContext, *counters: str):
    """One ``run_params`` cell: its metrics plus the named counters."""
    from ..scenario import run_params

    outcome = run_params(params, seed, harness)
    ctx.maybe_crash()
    return outcome, {**outcome.metrics(), **_counters(outcome, *counters)}


@workload("live_point")
def live_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One live-cluster run: ``nodes`` asyncio-hosted nodes over
    localhost TCP for ``duration`` *wall* seconds. Not checkpointable (a
    TCP cluster cannot be snapshotted mid-flight); a crashed attempt
    reruns from scratch, which the deterministic population makes safe.
    """
    outcome, metrics = _judged_point(
        "live", params, seed, ctx, "live_frames_sent", "live_bytes_sent", "live_link_resets"
    )
    return {**metrics, "live_callback_errors": float(len(outcome.errors))}


@workload("chaos_point")
def chaos_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One invariant-checked chaos run on ``substrate`` (``sim`` default,
    or ``live``), sweepable over ``plan``, ``nodes``, ``horizon`` and
    seeds — ``plan=membership`` with ``group_min``/``group_max`` axes is
    the membership-churn sweep. The violation count is a metric, not an
    exception: a soak campaign aggregates it to zero.
    """
    outcome, metrics = _judged_point(
        "chaos", params, seed, ctx, "chaos_frames_dropped", "chaos_frames_blackholed",
        "group_splits", "group_dissolves",
    )
    checked = float(outcome.report.checks.get("heal_windows", 0))
    return {**metrics, "heal_windows_checked": checked}


@workload("shard_epoch")
def shard_epoch(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One (shard, epoch) step of a group-sharded run.

    Parameters: ``run_dir`` (holds the ``sharded.json`` manifest with
    the full :class:`~repro.simnet.shard.ScaleSpec`), ``shard``,
    ``epoch``. State lives in the shard's snapshot under the run dir;
    see :func:`repro.orchestrator.sharded.run_shard_epoch` for the
    idempotency contract that makes crash retries exactly-once.
    """
    from .sharded import run_shard_epoch

    return run_shard_epoch(params, seed, ctx)


@workload("topo_point")
def topo_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One topology run (``substrate`` sim by default), sweepable per
    ``topology`` preset (``topology_seed`` stays 0 by default so one sweep compares
    one fingerprinted matrix); ``enforce_contract=0`` with a
    ``timer_scale`` is the false-positive-onset probe. Deterministic in
    ``(params, seed)``; not checkpointable (cells are short), so a
    crashed attempt simply reruns.
    """
    return _judged_point("topo", params, seed, ctx)[1]


@workload("campaign_point")
def campaign_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One adversarial-campaign cell: ``strategy`` × fault ``plan`` ×
    ``loss`` point (the fault-intensity axis), scored by
    :mod:`repro.campaign.scoring`. Deterministic in ``(params, seed)``
    like every workload; not checkpointable (cells are short), so a
    crashed attempt simply reruns.
    """
    from ..campaign.scoring import run_campaign_cell

    outcome = run_campaign_cell(params, seed)
    ctx.maybe_crash()
    return outcome.metrics()
