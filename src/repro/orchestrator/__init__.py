"""Parallel sweep orchestration: grids, workers, checkpoints, results.

The paper's figures sweep system size over three decades (Section VI),
but every experiment module used to run one-shot, in-process and
in-memory. This package turns those scripts into fault-tolerant
parallel sweeps:

* :mod:`repro.orchestrator.grid` — a (config × seed) grid with stable
  content-addressed cell ids, serializable to a run manifest;
* :mod:`repro.orchestrator.store` — an append-only JSONL result store
  with a versioned record schema;
* :mod:`repro.orchestrator.workloads` — the registry of sweepable
  experiments: one workload per :data:`repro.scenario.HARNESSES` row,
  each simulated cell checkpointable through :mod:`repro.simnet.snapshot`,
  plus ``shard_epoch``;
* :mod:`repro.orchestrator.pool` — the one driver of a run directory
  (``start_run`` / ``open_run``) and its multiprocessing worker pool:
  fan-out across cores, bounded-backoff retry of crashed or hung
  workers, periodic checkpoints, resume of interrupted sweeps.

``repro sweep run|resume|status|aggregate`` (:mod:`repro.cli`) is the
shell entry point; ``tests/unit/test_orchestrator.py`` pins crash
recovery, resume and schema round-trips.
"""

from .grid import SweepCell, SweepGrid, config_hash
from .store import RESULT_SCHEMA_VERSION, ResultRecord, ResultStore, StoreSchemaError
from .pool import (
    CRASH_EXIT_CODE,
    RunDirError,
    SweepOrchestrator,
    SweepStatus,
    open_run,
    run_cell_inline,
    start_run,
)
from .sharded import (
    EquivalenceReport,
    ShardedOutcome,
    load_sharded_manifest,
    run_sharded,
    verify_sharded,
)
from .workloads import (
    WORKLOADS,
    UnknownWorkloadError,
    WorkerContext,
    reset_worker_caches,
    resolve_workload,
    workload,
)

__all__ = [
    "SweepCell",
    "SweepGrid",
    "config_hash",
    "RESULT_SCHEMA_VERSION",
    "ResultRecord",
    "ResultStore",
    "StoreSchemaError",
    "CRASH_EXIT_CODE",
    "SweepOrchestrator",
    "SweepStatus",
    "EquivalenceReport",
    "ShardedOutcome",
    "load_sharded_manifest",
    "run_sharded",
    "verify_sharded",
    "RunDirError",
    "open_run",
    "run_cell_inline",
    "start_run",
    "WORKLOADS",
    "UnknownWorkloadError",
    "WorkerContext",
    "reset_worker_caches",
    "resolve_workload",
    "workload",
]
