"""Sweepable experiment workloads.

A *workload* is a function ``fn(params, seed, ctx) -> metrics`` taking
one grid cell's parameter dict and seed, plus a :class:`WorkerContext`
that provides checkpointing and (test-only) fault injection. Metrics
must be a flat ``name -> number`` dict; the reserved key
``"sim_time_s"`` is lifted into the result record's own field.

Workload functions run inside pool worker *processes*, looked up there
by name (the pool ships a workload's name, never a pickled function);
they must be deterministic in ``(params, seed)``: a crashed worker is
retried and a checkpointed run is resumed, and both recovery paths
assume re-execution converges on the same numbers.

Every row of :data:`repro.scenario.HARNESSES` is a workload of the same
name, run by :func:`run_harness_cell`: a simulated cell snapshots itself
every ``ctx.checkpoint_interval`` sim-seconds via
:mod:`repro.simnet.snapshot`, so a SIGKILLed worker resumes mid-run
instead of starting over. ``shard_epoch`` is one step of a sharded run.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..scenario import HARNESSES, Scenario, prepare, run_scenario
from ..simnet.snapshot import load_snapshot, save_snapshot

__all__ = [
    "CELL_COUNTERS",
    "WORKLOADS",
    "UnknownWorkloadError",
    "run_harness_cell",
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
    checkpoints_written: int = field(default=0, init=False)

    def checkpoint(self, system: Any, progress: "Dict[str, Any]") -> None:
        """Persist ``(system, progress)`` atomically; a crash between
        two checkpoints costs at most one interval of re-simulation."""
        if self.checkpoint_path is None:
            return
        save_snapshot((system, progress), self.checkpoint_path)
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
# scenario cells: one runner for every row of repro.scenario.HARNESSES,
# which holds each harness's defaults; Scenario.from_params documents the
# cell parameters they all read (any RacConfig field is an override)
# ---------------------------------------------------------------------------

#: Counters every cell records, whatever its harness or substrate; a
#: counter the run never touched records 0.
CELL_COUNTERS = (
    "net_packets_delivered",
    "net_packets_dropped",
    "transport_retransmits",
    "live_frames_sent",
    "live_bytes_sent",
    "live_link_resets",
    "chaos_frames_dropped",
    "chaos_frames_blackholed",
    "group_splits",
    "group_dissolves",
)


def _prepared(harness: str, scenario: Scenario, params: "Dict[str, Any]"):
    """A simulated cell at t=0: a :class:`~repro.scenario.SimRun`; a
    campaign cell's carries its passive opponent, tapped in."""
    if harness == "campaign":
        from ..campaign.scoring import prepare_campaign_cell

        return prepare_campaign_cell(scenario, params)
    return prepare(scenario)


def run_harness_cell(
    harness: str, params: "Dict[str, Any]", seed: int, ctx: WorkerContext
) -> "Dict[str, float]":
    """One sweep cell of ``harness``: ``Scenario.from_params`` played on
    the cell's own ``substrate`` and judged, as a flat metrics dict.

    On the simulator the run advances in checkpoint-interval chunks;
    each chunk boundary snapshots the prepared run (which carries its
    own clock), so an interrupted attempt resumes exactly where the
    last snapshot stood — the chunk schedule is deterministic, which
    makes the resumed run replay the uninterrupted one byte for byte.
    A live cell is not checkpointable (a TCP cluster cannot be
    snapshotted mid-flight); a crashed attempt reruns from scratch,
    which the deterministic population makes safe.
    """
    scenario = Scenario.from_params(params, seed, harness)
    substrate = str({**HARNESSES[harness], **params}.get("substrate", "sim"))
    if substrate == "live":
        outcome = run_scenario(scenario, substrate)
        ctx.maybe_crash()
    else:
        scenario.check_substrate(substrate)
        resumed = ctx.load_checkpoint()
        run = resumed[0] if resumed else _prepared(harness, scenario, params)
        horizon = scenario.horizon
        step = float(ctx.checkpoint_interval) if ctx.checkpoint_interval else horizon
        first_chunk = True
        while run.system.now < horizon - 1e-12:
            run.run_to(min(horizon, run.system.now + step))
            if run.system.now < horizon - 1e-12:
                ctx.checkpoint(run, {"t_done": run.system.now})
            if first_chunk:
                first_chunk = False
                ctx.maybe_crash()
        outcome = run.outcome()
        run.close()
    counters = outcome.counters
    return {
        **outcome.metrics(),
        "delivered_bytes": float(sum(len(payload) for _at, _node, payload in outcome.deliveries)),
        "events_processed": float(counters.get("sim_events_processed", 0)),
        "heal_windows_checked": float(outcome.report.checks.get("heal_windows", 0)),
        "errors": float(len(outcome.errors)),
        **{name: float(counters.get(name, 0)) for name in CELL_COUNTERS},
    }


for _harness in HARNESSES:
    workload(_harness)(functools.partial(run_harness_cell, _harness))


@workload("shard_epoch")
def shard_epoch(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One (shard, epoch) step of a group-sharded run.

    Parameters: ``run_dir`` (holds the ``sharded.json`` manifest: the
    :class:`~repro.scenario.Scenario`, the shard count and the epoch),
    ``shard``, ``epoch``. State lives in the shard's snapshot under the run dir;
    see :func:`repro.orchestrator.sharded.run_shard_epoch` for the
    idempotency contract that makes crash retries exactly-once.
    """
    from .sharded import run_shard_epoch

    return run_shard_epoch(params, seed, ctx)
