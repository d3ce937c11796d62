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
* **hung worker** (no exit within ``timeout`` wall-seconds) —
  terminated, then killed, then treated exactly like a crash;
* **killed orchestrator** — the store survives (line-atomic appends)
  and ``repro sweep resume`` re-runs only the cells whose latest record
  is not ``ok``; a cell whose worker had checkpointed resumes mid-run
  from its snapshot (:mod:`repro.simnet.snapshot`).

One driver per run directory: :func:`start_run` writes the manifest
(refusing a directory that holds a different grid) and :func:`open_run`
reopens it; both hand back the :class:`SweepOrchestrator` whose
``run()`` is the only loop. ``run(serial=True)`` executes the same
cells with the same :class:`WorkerContext` in this process: a raising
cell gets the ``failed`` record the pool writes after its retry budget
and the loop moves on. Run-directory layout::

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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from .grid import SweepCell, SweepGrid, canonical_json
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
    "RunDirError",
    "run_cell_inline",
    "start_run",
    "open_run",
    "write_manifest",
    "load_manifest",
    "MANIFEST_NAME",
    "STORE_NAME",
]

MANIFEST_NAME = "sweep.json"
STORE_NAME = "results.jsonl"
_POLL_SECONDS = 0.02
#: A crashed attempt is retried after BACKOFF_BASE * 2**attempt
#: wall-seconds, capped at BACKOFF_MAX.
BACKOFF_BASE = 0.25
BACKOFF_MAX = 5.0


class RunDirError(ValueError):
    """The run directory is not what the command needs: no manifest, a
    different grid, a plain sweep where a campaign was expected. The
    CLI prints the message and exits 2."""


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


def _worker_entry(cell_spec: "Dict[str, Any]", outbox_path: str, ctx: WorkerContext) -> None:
    """Child-process entry point: run one cell attempt, outbox the record.

    Must stay a module-level function (spawn-start contexts import it by
    qualified name). Any uncaught exception prints a traceback and exits
    non-zero, which the parent counts as a crashed attempt.
    """
    try:
        reset_worker_caches()
        cell = SweepCell.make(cell_spec["experiment"], cell_spec["params"], cell_spec["seed"])
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


def run_cell_inline(cell: SweepCell, ctx: "Optional[WorkerContext]" = None) -> ResultRecord:
    """Run one cell in the current process (no isolation, no retry, no
    record of a failure: the exception is the caller's)."""
    return _execute_cell(cell, ctx if ctx is not None else WorkerContext())


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
        raise RunDirError(f"{path} not found — was this directory created by 'sweep run'?")
    with open(path, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    if body.get("schema") != 1:
        raise RunDirError(f"unsupported sweep manifest schema {body.get('schema')!r}")
    return SweepGrid.from_spec(body["grid"]), body.get("options", {})


# ---------------------------------------------------------------------------
# the driver: the two ways into a run directory
# ---------------------------------------------------------------------------
#: What a manifest's ``options`` block holds, whoever started the run.
POOL_OPTIONS = ("workers", "checkpoint_interval", "max_retries", "timeout")


def _describe(grid: SweepGrid) -> str:
    axes = ", ".join(f"{name}={values}" for name, values in grid.axes.items())
    return f"{grid.experiment} [{axes}] x seeds {grid.seeds}"


def start_run(
    run_dir: str, grid: SweepGrid, options: "Optional[Dict[str, Any]]" = None
) -> "SweepOrchestrator":
    """Start ``grid`` under ``run_dir``, or re-enter the same grid there.

    A run directory holds one grid: a directory whose manifest holds a
    different one is refused before anything is written. The same grid
    is a resume — ``run()`` skips what the store already holds — and may
    carry new pool options, which are persisted whole so that
    :func:`open_run` continues with what the run was started with.
    """
    if os.path.exists(os.path.join(run_dir, MANIFEST_NAME)):
        held, _ = load_manifest(run_dir)
        if canonical_json(held.to_spec()) != canonical_json(grid.to_spec()):
            raise RunDirError(
                f"{run_dir} already holds a different sweep: {_describe(held)}, "
                f"not {_describe(grid)}; use a fresh --run-dir or delete it"
            )
    store = ResultStore(os.path.join(run_dir, STORE_NAME))
    run = SweepOrchestrator(grid, store, run_dir, **(options or {}))
    write_manifest(run_dir, grid, {name: getattr(run, name) for name in POOL_OPTIONS})
    return run


def open_run(run_dir: str, **overrides: Any) -> "SweepOrchestrator":
    """Reopen the run ``start_run`` left in ``run_dir``, with its pool
    options (``overrides`` that are not None win); ``.run()`` on the
    result is resume, ``.status()`` and ``.store`` read it."""
    grid, held = load_manifest(run_dir)
    options = {name: held[name] for name in POOL_OPTIONS if held.get(name) is not None}
    options.update((name, value) for name, value in overrides.items() if value is not None)
    return SweepOrchestrator(grid, ResultStore(os.path.join(run_dir, STORE_NAME)), run_dir, **options)


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
    """Drives one grid to completion, over a bounded worker pool or
    (``run(serial=True)``) in this process."""

    def __init__(
        self,
        grid: SweepGrid,
        store: ResultStore,
        run_dir: str,
        workers: int = 2,
        checkpoint_interval: "Optional[float]" = None,
        max_retries: int = 2,
        timeout: "Optional[float]" = None,
        verify_snapshots: bool = False,
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
        #: Wall-seconds before a worker counts as hung.
        self.timeout = timeout
        self.verify_snapshots = verify_snapshots
        self.retries_seen = 0

    # -- paths ---------------------------------------------------------------
    def _checkpoint_path(self, cell: SweepCell) -> str:
        return os.path.join(self.run_dir, "checkpoints", f"{cell.cell_id}.snap")

    def _outbox_path(self, cell: SweepCell) -> str:
        return os.path.join(self.run_dir, "outbox", f"{cell.cell_id}.json")

    def _context(self, cell: SweepCell, attempt: int = 0, inject_crash: bool = False) -> WorkerContext:
        return WorkerContext(
            checkpoint_path=self._checkpoint_path(cell),
            checkpoint_interval=self.checkpoint_interval,
            attempt=attempt,
            inject_crash=inject_crash,
            verify_snapshots=self.verify_snapshots,
        )

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

    def run(self, serial: bool = False, inject_crash: int = 0) -> SweepStatus:
        """Run every not-yet-completed cell to a terminal record.

        Idempotent: calling it on a finished campaign does nothing, and
        calling it on an interrupted one is exactly ``sweep resume``.
        ``inject_crash`` kills the first attempt of the first K pending
        cells (chaos for tests and the CI smoke targets); an injected
        crash is ``os._exit`` and cannot be survived in-process, so it
        is an error with ``serial``.
        """
        if serial and inject_crash:
            raise ValueError("inject_crash kills a worker process; it cannot be combined with serial")
        os.makedirs(os.path.join(self.run_dir, "checkpoints"), exist_ok=True)
        os.makedirs(os.path.join(self.run_dir, "outbox"), exist_ok=True)
        self.store.reload()
        completed = self.store.completed_ids()
        cells = [cell for cell in self.grid.cells() if cell.cell_id not in completed]
        if serial:
            for cell in cells:
                self._run_in_process(cell)
            return self.status()

        crash_cells = {cell.cell_id for cell in cells[:inject_crash]}
        pending: List[_Attempt] = [_Attempt(cell) for cell in cells]
        running: "Dict[Any, Tuple[_Attempt, float]]" = {}  # proc -> (attempt, deadline)

        while pending or running:
            now = time.monotonic()
            # Launch every ready attempt the pool has capacity for.
            launchable = [a for a in pending if a.ready_at <= now]
            while launchable and len(running) < self.workers:
                attempt = launchable.pop(0)
                pending.remove(attempt)
                proc = self._launch(attempt, crash_cells)
                deadline = now + self.timeout if self.timeout is not None else float("inf")
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

    def _run_in_process(self, cell: SweepCell) -> None:
        """The serial mode's one attempt at ``cell``. No retry: a
        deterministic cell that raised would raise again."""
        ctx = self._context(cell)
        try:
            record = _execute_cell(cell, ctx)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self._record_failure(cell, 1, f"{type(exc).__name__}: {exc}")
            return
        self.store.append(record)
        ctx.clear_checkpoint()

    def _launch(self, attempt: _Attempt, crash_cells: "Set[str]"):
        cell = attempt.cell
        inject = attempt.attempt == 0 and cell.cell_id in crash_cells
        proc = multiprocessing.Process(
            target=_worker_entry,
            args=(
                {"experiment": cell.experiment, "params": cell.params_dict, "seed": cell.seed},
                self._outbox_path(cell),
                self._context(cell, attempt.attempt, inject),
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

    def _record_failure(self, cell: SweepCell, attempts: int, reason: str) -> None:
        """The terminal ``failed`` record: it keeps the sweep's
        bookkeeping complete, and resume will try the cell again."""
        self.store.append(
            ResultRecord(
                cell_id=cell.cell_id,
                experiment=cell.experiment,
                config_hash=cell.config_hash,
                params=cell.params_dict,
                seed=cell.seed,
                status="failed",
                attempts=attempts,
                error=reason,
            )
        )

    def _on_attempt_failed(
        self, attempt: _Attempt, pending: "List[_Attempt]", reason: str
    ) -> None:
        if attempt.attempt >= self.max_retries:
            self._record_failure(attempt.cell, attempt.attempt + 1, reason)
            return
        self.retries_seen += 1
        backoff = min(BACKOFF_MAX, BACKOFF_BASE * (2 ** attempt.attempt))
        pending.append(
            _Attempt(attempt.cell, attempt.attempt + 1, time.monotonic() + backoff)
        )
