"""The multiprocessing worker pool behind ``repro sweep``.

Fan-out model: the orchestrator process owns the grid and the result
store; each cell attempt runs in a child process that writes its
finished record to a private *outbox* file (tmp + rename, atomic) and
exits 0. The parent is the only writer of the JSONL store, so store
appends never race. Failure handling:

* **crashed worker** (non-zero exit, e.g. an injected ``os._exit`` or a
  real segfault/OOM kill) — retried with bounded exponential backoff,
  up to ``max_retries`` extra attempts, after which a ``failed`` record
  is appended so the sweep terminates with the failure *recorded*, not
  silently dropped;
* **hung worker** (no exit within ``worker_timeout`` wall-seconds) —
  terminated, then killed, then treated exactly like a crash;
* **killed orchestrator** — the store survives (line-atomic appends)
  and ``repro sweep resume`` re-runs only the cells whose latest record
  is not ``ok``; a cell whose worker had checkpointed resumes mid-run
  from its snapshot (:mod:`repro.simnet.snapshot`).

Run-directory layout::

    <run_dir>/sweep.json        grid manifest (resume/status read this)
    <run_dir>/results.jsonl     the durable result store
    <run_dir>/checkpoints/<cell_id>.snap
    <run_dir>/outbox/<cell_id>.json

Workers re-execute deterministic workloads, so a retried or resumed
cell converges on the same metrics an uninterrupted worker would have
produced — pinned by ``tests/unit/test_orchestrator.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .grid import SweepCell, SweepGrid
from .store import ResultRecord, ResultStore
from .workloads import (
    CRASH_EXIT_CODE,
    WorkerContext,
    reset_worker_caches,
    resolve_workload,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "SweepOrchestrator",
    "SweepStatus",
    "run_cell_inline",
    "run_grid_inline",
    "write_manifest",
    "load_manifest",
    "MANIFEST_NAME",
    "STORE_NAME",
]

MANIFEST_NAME = "sweep.json"
STORE_NAME = "results.jsonl"
_POLL_SECONDS = 0.02


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _execute_cell(cell: SweepCell, ctx: WorkerContext) -> ResultRecord:
    """Run one cell to completion in this process; returns its record."""
    fn = resolve_workload(cell.experiment)
    started = time.perf_counter()
    metrics = dict(fn(cell.params_dict, cell.seed, ctx))
    sim_time = float(metrics.pop("sim_time_s", 0.0))
    return ResultRecord(
        cell_id=cell.cell_id,
        experiment=cell.experiment,
        config_hash=cell.config_hash,
        params=cell.params_dict,
        seed=cell.seed,
        metrics=metrics,
        status="ok",
        attempts=ctx.attempt + 1,
        wall_time_s=time.perf_counter() - started,
        sim_time_s=sim_time,
    )


def _worker_entry(
    cell_spec: "Dict[str, Any]",
    outbox_path: str,
    checkpoint_path: "Optional[str]",
    checkpoint_interval: "Optional[float]",
    attempt: int,
    inject_crash: bool,
    verify_snapshots: bool,
) -> None:
    """Child-process entry point: run one cell attempt, outbox the record.

    Must stay a module-level function (spawn-start contexts import it by
    qualified name). Any uncaught exception prints a traceback and exits
    non-zero, which the parent counts as a crashed attempt.
    """
    try:
        reset_worker_caches()
        cell = SweepCell.make(cell_spec["experiment"], cell_spec["params"], cell_spec["seed"])
        ctx = WorkerContext(
            checkpoint_path=checkpoint_path,
            checkpoint_interval=checkpoint_interval,
            attempt=attempt,
            inject_crash=inject_crash,
            verify_snapshots=verify_snapshots,
        )
        record = _execute_cell(cell, ctx)
        tmp = f"{outbox_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(record.to_json())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, outbox_path)
        ctx.clear_checkpoint()
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        os._exit(1)


# ---------------------------------------------------------------------------
# inline (serial) execution — figure modules, baselines, tests
# ---------------------------------------------------------------------------
def run_cell_inline(cell: SweepCell, ctx: "Optional[WorkerContext]" = None) -> ResultRecord:
    """Run one cell in the current process (no isolation, no retry)."""
    return _execute_cell(cell, ctx if ctx is not None else WorkerContext())


def run_grid_inline(
    grid: SweepGrid,
    store: "Optional[ResultStore]" = None,
    ctx: "Optional[WorkerContext]" = None,
) -> ResultStore:
    """Serially evaluate a grid into a store (in-memory by default).

    The one-shot path the figure modules use: same grid semantics and
    result schema as a parallel campaign, minus the processes. Cells
    already completed in ``store`` are skipped, exactly like a resume.
    ``ctx`` is handed to every cell (default: a bare context).
    """
    if store is None:
        store = ResultStore()
    completed = store.completed_ids()
    for cell in grid.cells():
        if cell.cell_id in completed:
            continue
        store.append(run_cell_inline(cell, ctx))
    return store


# ---------------------------------------------------------------------------
# manifest (repro sweep resume/status rebuild state from the run dir)
# ---------------------------------------------------------------------------
def write_manifest(run_dir: str, grid: SweepGrid, options: "Dict[str, Any]") -> str:
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, MANIFEST_NAME)
    body = {"schema": 1, "grid": grid.to_spec(), "options": options}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_manifest(run_dir: str) -> "Tuple[SweepGrid, Dict[str, Any]]":
    path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found — was this directory created by 'sweep run'?")
    with open(path, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    if body.get("schema") != 1:
        raise ValueError(f"unsupported sweep manifest schema {body.get('schema')!r}")
    return SweepGrid.from_spec(body["grid"]), body.get("options", {})


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------
@dataclass
class SweepStatus:
    """Progress summary of one sweep campaign."""

    total: int
    completed: int
    failed: int
    pending: int
    retries: int = 0

    @property
    def done(self) -> bool:
        return self.pending == 0

    def render(self) -> str:
        return (
            f"{self.completed}/{self.total} cells ok, {self.failed} failed, "
            f"{self.pending} pending ({self.retries} retried attempts)"
        )


@dataclass
class _Attempt:
    cell: SweepCell
    attempt: int = 0
    ready_at: float = 0.0


class SweepOrchestrator:
    """Drives one grid to completion over a bounded worker pool."""

    def __init__(
        self,
        grid: SweepGrid,
        store: ResultStore,
        run_dir: str,
        workers: int = 2,
        checkpoint_interval: "Optional[float]" = None,
        max_retries: int = 2,
        backoff_base: float = 0.25,
        backoff_max: float = 5.0,
        worker_timeout: "Optional[float]" = None,
        inject_crash_cells: "Iterable[str]" = (),
        verify_snapshots: bool = False,
        mp_context: "Optional[str]" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("the pool needs at least one worker")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.grid = grid
        self.store = store
        self.run_dir = run_dir
        self.workers = workers
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.worker_timeout = worker_timeout
        #: cell_ids whose first attempt dies via an injected crash —
        #: chaos for tests and the CI sweep-smoke target.
        self.inject_crash_cells = set(inject_crash_cells)
        self.verify_snapshots = verify_snapshots
        self._mp = multiprocessing.get_context(mp_context)
        self.retries_seen = 0

    # -- paths ---------------------------------------------------------------
    def _checkpoint_path(self, cell: SweepCell) -> str:
        return os.path.join(self.run_dir, "checkpoints", f"{cell.cell_id}.snap")

    def _outbox_path(self, cell: SweepCell) -> str:
        return os.path.join(self.run_dir, "outbox", f"{cell.cell_id}.json")

    # -- lifecycle -----------------------------------------------------------
    def status(self) -> SweepStatus:
        self.store.reload()
        cells = self.grid.cells()
        completed = self.store.completed_ids()
        failed = self.store.failed_ids() - completed
        done = sum(1 for c in cells if c.cell_id in completed)
        failed_n = sum(1 for c in cells if c.cell_id in failed)
        return SweepStatus(
            total=len(cells),
            completed=done,
            failed=failed_n,
            pending=len(cells) - done,
            retries=self.retries_seen,
        )

    def run(self) -> SweepStatus:
        """Run every not-yet-completed cell to a terminal record.

        Idempotent: calling it on a finished campaign does nothing, and
        calling it on an interrupted one is exactly ``sweep resume``.
        """
        os.makedirs(os.path.join(self.run_dir, "checkpoints"), exist_ok=True)
        os.makedirs(os.path.join(self.run_dir, "outbox"), exist_ok=True)
        self.store.reload()
        completed = self.store.completed_ids()
        pending: List[_Attempt] = [
            _Attempt(cell) for cell in self.grid.cells() if cell.cell_id not in completed
        ]
        running: "Dict[Any, Tuple[_Attempt, float]]" = {}  # proc -> (attempt, deadline)

        while pending or running:
            now = time.monotonic()
            # Launch every ready attempt the pool has capacity for.
            launchable = [a for a in pending if a.ready_at <= now]
            while launchable and len(running) < self.workers:
                attempt = launchable.pop(0)
                pending.remove(attempt)
                proc = self._launch(attempt)
                deadline = (
                    now + self.worker_timeout if self.worker_timeout is not None else float("inf")
                )
                running[proc] = (attempt, deadline)

            # Reap finished / overdue workers.
            progressed = False
            for proc in list(running):
                attempt, deadline = running[proc]
                if proc.is_alive():
                    if time.monotonic() < deadline:
                        continue
                    # Hung: escalate terminate -> kill, then treat as crash.
                    proc.terminate()
                    proc.join(1.0)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(1.0)
                    del running[proc]
                    self._on_attempt_failed(attempt, pending, reason="worker hung (timeout)")
                    progressed = True
                    continue
                proc.join()
                del running[proc]
                progressed = True
                if proc.exitcode == 0 and self._collect(attempt):
                    continue
                reason = f"worker exited with code {proc.exitcode}"
                if proc.exitcode == CRASH_EXIT_CODE:
                    reason = "worker crashed (injected)"
                self._on_attempt_failed(attempt, pending, reason=reason)

            if not progressed:
                time.sleep(_POLL_SECONDS)

        return self.status()

    def _launch(self, attempt: _Attempt):
        cell = attempt.cell
        inject = attempt.attempt == 0 and cell.cell_id in self.inject_crash_cells
        proc = self._mp.Process(
            target=_worker_entry,
            args=(
                {"experiment": cell.experiment, "params": cell.params_dict, "seed": cell.seed},
                self._outbox_path(cell),
                self._checkpoint_path(cell),
                self.checkpoint_interval,
                attempt.attempt,
                inject,
                self.verify_snapshots,
            ),
            daemon=True,
        )
        proc.start()
        return proc

    def _collect(self, attempt: _Attempt) -> bool:
        """Move a successful worker's outboxed record into the store."""
        path = self._outbox_path(attempt.cell)
        if not os.path.exists(path):
            return False  # exited 0 without a record: treat as a crash
        with open(path, "r", encoding="utf-8") as fh:
            record = ResultRecord.from_json(fh.read())
        self.store.append(record)
        os.remove(path)
        return True

    def _on_attempt_failed(
        self, attempt: _Attempt, pending: "List[_Attempt]", reason: str
    ) -> None:
        if attempt.attempt >= self.max_retries:
            # Out of budget: a terminal failed record keeps the sweep's
            # bookkeeping complete (and resume will try the cell again).
            self.store.append(
                ResultRecord(
                    cell_id=attempt.cell.cell_id,
                    experiment=attempt.cell.experiment,
                    config_hash=attempt.cell.config_hash,
                    params=attempt.cell.params_dict,
                    seed=attempt.cell.seed,
                    status="failed",
                    attempts=attempt.attempt + 1,
                    error=reason,
                )
            )
            return
        self.retries_seen += 1
        backoff = min(self.backoff_max, self.backoff_base * (2 ** attempt.attempt))
        pending.append(
            _Attempt(attempt.cell, attempt.attempt + 1, time.monotonic() + backoff)
        )
