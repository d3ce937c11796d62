"""Unit tests for the sweep orchestrator.

Covers the ISSUE's required recovery paths: worker-crash retry with
bounded backoff, resume from a mid-run checkpoint, and the result
store's versioned schema round-trip — plus grid identity, manifest
round-trips, the store's aggregation, and the one run-directory driver
(``start_run`` / ``open_run`` / ``run(serial=)``).
"""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro.orchestrator import (
    RESULT_SCHEMA_VERSION,
    ResultRecord,
    ResultStore,
    RunDirError,
    StoreSchemaError,
    SweepCell,
    SweepGrid,
    SweepOrchestrator,
    WorkerContext,
    open_run,
    run_cell_inline,
    start_run,
)
from repro.orchestrator import pool
from repro.orchestrator.pool import STORE_NAME, load_manifest, write_manifest
from repro.orchestrator.workloads import protocol_run

_FAST = {"nodes": 4, "duration": 2.0, "messages": 1}


# ---------------------------------------------------------------------------
# grid identity
# ---------------------------------------------------------------------------
class TestGrid:
    def test_cell_id_is_insensitive_to_param_order(self):
        a = SweepCell.make("protocol", {"nodes": 4, "duration": 1.0}, 3)
        b = SweepCell.make("protocol", {"duration": 1.0, "nodes": 4}, 3)
        assert a.cell_id == b.cell_id
        assert a.config_hash == b.config_hash

    def test_cell_id_changes_with_any_identity_component(self):
        base = SweepCell.make("protocol", {"nodes": 4}, 0)
        assert base.cell_id != SweepCell.make("protocol", {"nodes": 5}, 0).cell_id
        assert base.cell_id != SweepCell.make("protocol", {"nodes": 4}, 1).cell_id
        assert base.cell_id != SweepCell.make("chaos_point", {"nodes": 4}, 0).cell_id

    def test_grid_enumeration_is_deterministic(self):
        grid = SweepGrid("protocol", {"b": [1, 2], "a": [3]}, seeds=(0, 1))
        ids = [c.cell_id for c in grid.cells()]
        again = [c.cell_id for c in SweepGrid("protocol", {"a": [3], "b": [1, 2]}, seeds=(0, 1)).cells()]
        assert ids == again
        assert len(ids) == len(set(ids)) == len(grid) == 4

    def test_manifest_spec_round_trip(self, tmp_path):
        grid = SweepGrid("protocol", {"nodes": [4, 6]}, seeds=(0, 1), base_params={"duration": 1.0})
        write_manifest(str(tmp_path), grid, {"workers": 3})
        restored, options = load_manifest(str(tmp_path))
        assert [c.cell_id for c in restored.cells()] == [c.cell_id for c in grid.cells()]
        assert options == {"workers": 3}

    def test_base_and_axis_params_cannot_overlap(self):
        with pytest.raises(ValueError):
            SweepGrid("protocol", {"nodes": [4]}, base_params={"nodes": 6})

    def test_non_json_param_values_are_rejected(self):
        with pytest.raises(TypeError):
            SweepCell.make("protocol", {"bad": object()}, 0)


# ---------------------------------------------------------------------------
# result store schema
# ---------------------------------------------------------------------------
def _record(**overrides) -> ResultRecord:
    base = dict(
        cell_id="abc123",
        experiment="protocol",
        config_hash="deadbeef",
        params={"nodes": 4},
        seed=0,
        metrics={"throughput_bps": 176.0},
    )
    base.update(overrides)
    return ResultRecord(**base)


class TestStore:
    def test_record_json_round_trip(self):
        record = _record(attempts=2, wall_time_s=1.25, sim_time_s=4.0)
        clone = ResultRecord.from_json(record.to_json())
        assert clone == record
        assert clone.schema == RESULT_SCHEMA_VERSION

    def test_unknown_schema_version_fails_loudly(self):
        body = json.loads(_record().to_json())
        body["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(StoreSchemaError):
            ResultRecord.from_json(json.dumps(body))

    def test_garbage_line_fails_loudly(self):
        with pytest.raises(StoreSchemaError):
            ResultRecord.from_json("not json at all")

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError):
            _record(status="maybe")

    def test_jsonl_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(path)
        store.append(_record())
        store.append(_record(cell_id="def456", status="failed", error="boom"))
        fresh = ResultStore(path)
        assert len(fresh) == 2
        assert fresh.completed_ids() == {"abc123"}
        assert fresh.failed_ids() == {"def456"}

    def test_last_record_wins(self):
        store = ResultStore()
        store.append(_record(status="failed", error="crash"))
        store.append(_record(attempts=2))
        assert store.completed_ids() == {"abc123"}
        assert store.latest()["abc123"].attempts == 2

    def test_aggregate_rows(self):
        store = ResultStore()
        store.append(_record(cell_id="c0", params={"nodes": 4}, metrics={"m": 1.0}))
        store.append(_record(cell_id="c1", params={"nodes": 8}, metrics={"m": 3.0}))
        rows = store.aggregate("m", by="nodes")
        assert [(r["nodes"], r["mean"]) for r in rows] == [(4, 1.0), (8, 3.0)]

    def test_aggregate_counts_records_missing_the_metric(self):
        """A heterogeneous store (e.g. campaign cells next to protocol
        cells) skips and *counts* metric-less records, never KeyErrors."""
        store = ResultStore()
        store.append(_record(cell_id="c0", metrics={"m": 1.0}))
        store.append(_record(cell_id="c1", metrics={"other": 9.0}))
        store.append(_record(cell_id="c2", metrics={}, status="failed", error="x"))
        rows, skipped = store.aggregate("m", by="nodes", with_skipped=True)
        assert [(r["nodes"], r["n"]) for r in rows] == [(4, 1)]
        assert skipped == 1  # the failed record is 'failed', not 'skipped'
        # The default return shape is unchanged for existing callers.
        assert store.aggregate("m", by="nodes") == rows

    def test_one_git_fork_per_process_not_per_record(self, monkeypatch):
        from repro.experiments.fig1 import figure1
        from repro.orchestrator import store

        calls = []
        real_run = subprocess.run
        monkeypatch.setattr(
            subprocess, "run", lambda *a, **kw: calls.append(a) or real_run(*a, **kw)
        )
        store.git_revision.cache_clear()
        revs = {_record(cell_id=f"c{i}").git_rev for i in range(50)}
        assert len(calls) == 1 and len(revs) == 1
        store.git_revision.cache_clear()
        figure1()  # closed forms: no cell, no record, no fork
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# inline execution + checkpoint resume (no processes)
# ---------------------------------------------------------------------------
class TestInline:
    def test_run_cell_inline_protocol(self):
        record = run_cell_inline(SweepCell.make("protocol", _FAST, 0))
        assert record.status == "ok"
        assert record.metrics["deliveries"] > 0
        assert record.sim_time_s == pytest.approx(2.0)

    def test_serial_run_skips_completed_cells(self, tmp_path, cheap_point):
        grid = SweepGrid(cheap_point, {"nodes": [100, 1000]})
        run = start_run(str(tmp_path), grid)
        assert run.run(serial=True).completed == 2 and len(run.store) == 2
        # resume semantics: nothing re-runs, through either way in
        assert start_run(str(tmp_path), grid).run(serial=True).done
        assert open_run(str(tmp_path)).run(serial=True).done
        assert len(ResultStore(str(tmp_path / STORE_NAME))) == 2

    def test_resume_from_checkpoint_matches_uninterrupted(self, tmp_path):
        """A run resumed from its mid-run snapshot reproduces the full
        run's metrics exactly (the crash-recovery correctness core)."""
        params = {"nodes": 4, "duration": 2.0, "messages": 1}
        uninterrupted = protocol_run(dict(params), 7, WorkerContext())

        path = str(tmp_path / "cell.snap")
        first = WorkerContext(checkpoint_path=path, checkpoint_interval=1.0)
        full = protocol_run(dict(params), 7, first)
        assert full == uninterrupted
        # The t=1.0 checkpoint is still on disk (the pool clears it only
        # after the record is safely outboxed); a fresh attempt must
        # resume from it rather than restart.
        assert first.checkpoints_written == 1
        assert os.path.exists(path)
        second = WorkerContext(checkpoint_path=path, checkpoint_interval=1.0, attempt=1)
        resumed = protocol_run(dict(params), 7, second)
        assert resumed == uninterrupted

    def test_unknown_workload_fails_with_typed_listing_error(self):
        from repro.orchestrator import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError) as err:
            run_cell_inline(SweepCell.make("no_such_experiment", {}, 0))
        message = str(err.value)
        assert "no_such_experiment" in message
        for registered in ("protocol", "campaign_point", "chaos_point"):
            assert registered in message
        assert isinstance(err.value, KeyError)  # old except-clauses still catch


# ---------------------------------------------------------------------------
# the worker pool (real processes)
# ---------------------------------------------------------------------------
def _one_cell_grid(**base):
    return SweepGrid("protocol", {"nodes": [4]}, seeds=(0,), base_params={"duration": 1.0, "messages": 1, **base})


class TestPool:
    def _assert_resumed_to_the_uninterrupted_metrics(self, run, cell, attempts):
        record = run.store.latest()[cell.cell_id]
        assert record.status == "ok"
        assert record.attempts == attempts
        # Crash recovery must not change the numbers.
        assert record.metrics == run_cell_inline(cell).metrics
        # Checkpoint and outbox are cleaned up after collection.
        assert os.listdir(os.path.join(run.run_dir, "checkpoints")) == []
        assert os.listdir(os.path.join(run.run_dir, "outbox")) == []

    def test_injected_crash_is_retried_to_success(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "BACKOFF_BASE", 0.05)
        grid = _one_cell_grid()
        run = start_run(str(tmp_path), grid, {"workers": 1, "checkpoint_interval": 0.5})
        status = run.run(inject_crash=1)
        assert status.done and status.failed == 0
        self._assert_resumed_to_the_uninterrupted_metrics(run, grid.cells()[0], attempts=2)

    def test_serial_honours_the_checkpoint_interval(self, tmp_path, monkeypatch):
        """The same recovery in-process: a cell that raises after its
        first chunk leaves its checkpoint, and the next run resumes it."""
        grid = _one_cell_grid()
        cell = grid.cells()[0]
        run = start_run(str(tmp_path), grid, {"checkpoint_interval": 0.5})
        with monkeypatch.context() as patch:
            patch.setattr(WorkerContext, "maybe_crash", lambda ctx: 1 / 0)
            status = run.run(serial=True)
        assert status.failed == 1 and "ZeroDivisionError" in run.store.latest()[cell.cell_id].error
        assert os.listdir(str(tmp_path / "checkpoints")) == [f"{cell.cell_id}.snap"]
        _run, progress = run._context(cell).load_checkpoint()
        assert progress == {"t_done": 0.5}  # what the next attempt resumes from, not zero
        status = run.run(serial=True)
        assert status.done and status.failed == 0
        self._assert_resumed_to_the_uninterrupted_metrics(run, cell, attempts=1)

    def test_exhausted_retries_record_a_failure(self, tmp_path):
        grid = _one_cell_grid()
        cell = grid.cells()[0]
        # max_retries=0: the injected first-attempt crash is terminal
        run = start_run(str(tmp_path), grid, {"workers": 1, "max_retries": 0})
        status = run.run(inject_crash=1)
        assert status.failed == 1
        record = run.store.latest()[cell.cell_id]
        assert record.status == "failed"
        assert record.attempts == 1
        assert "crash" in record.error

    def test_hung_worker_is_killed_and_recorded(self, tmp_path):
        # A long simulation against a tiny wall-clock timeout: the pool
        # must terminate the worker and record the failure.
        grid = SweepGrid(
            "protocol", {"nodes": [8]}, seeds=(0,), base_params={"duration": 300.0, "messages": 4}
        )
        run = start_run(str(tmp_path), grid, {"workers": 1, "max_retries": 0, "timeout": 0.4})
        status = run.run()
        assert status.failed == 1
        record = run.store.latest()[grid.cells()[0].cell_id]
        assert record.status == "failed"
        assert "hung" in record.error

    def test_resume_skips_completed_cells(self, tmp_path):
        grid = SweepGrid("protocol", {"nodes": [4, 6]}, seeds=(0,), base_params={"duration": 1.0, "messages": 1})
        store = ResultStore(str(tmp_path / STORE_NAME))
        first, second = grid.cells()
        # Simulate an interrupted campaign: only the first cell finished.
        store.append(run_cell_inline(first))
        orchestrator = SweepOrchestrator(grid, store, str(tmp_path), workers=1)
        status = orchestrator.run()
        assert status.done and status.completed == 2
        # The completed cell was not re-run (still exactly one record).
        records = [r for r in store.records() if r.cell_id == first.cell_id]
        assert len(records) == 1


# ---------------------------------------------------------------------------
# the one driver: start_run / open_run / run(serial=)
# ---------------------------------------------------------------------------
class TestDriver:
    def test_serial_and_pool_are_the_same_function_of_the_grid(self, tmp_path):
        """2x2 good cells plus one that raises (a scenario needs two
        nodes): same status, same metrics, same failed record, and a
        resume that re-attempts only the failed cell — on both paths."""
        grid = SweepGrid(
            "protocol", {"nodes": [1, 4, 6]}, seeds=(0, 1), base_params={"duration": 0.3, "messages": 1}
        )
        bad = {c.cell_id for c in grid.cells() if c.params_dict["nodes"] == 1}
        outcomes = {}
        for mode in ("serial", "pool"):
            run_dir = str(tmp_path / mode)
            run = start_run(run_dir, grid, {"workers": 2, "max_retries": 0})
            status = run.run(serial=mode == "serial")
            latest = run.store.latest()
            for cell_id in bad:
                assert latest[cell_id].status == "failed"
                assert latest[cell_id].attempts == 1 and latest[cell_id].error
            before = len(run.store)
            again = open_run(run_dir).run(serial=mode == "serial")
            reattempted = [r.cell_id for r in ResultStore(run.store.path).records()[before:]]
            assert sorted(reattempted) == sorted(bad)
            assert again == status
            outcomes[mode] = (
                (status.total, status.completed, status.failed, status.pending),
                {cid: rec.metrics for cid, rec in latest.items() if rec.status == "ok"},
            )
        assert outcomes["serial"] == outcomes["pool"]
        assert outcomes["serial"][0] == (6, 4, 2, 2)

    def test_a_run_directory_holds_one_grid(self, tmp_path, cheap_point):
        run_dir = str(tmp_path)
        start_run(run_dir, SweepGrid(cheap_point, {"nodes": [2, 3]})).run(serial=True)
        before = {name: (tmp_path / name).read_bytes() for name in ("sweep.json", STORE_NAME)}
        with pytest.raises(RunDirError, match=r"nodes=\[2, 3\].*nodes=\[5\].*fresh --run-dir"):
            start_run(run_dir, SweepGrid(cheap_point, {"nodes": [5]}))
        assert before == {name: (tmp_path / name).read_bytes() for name in before}

    def test_pool_options_persist_whole_and_open_run_restores_them(self, tmp_path, cheap_point):
        grid = SweepGrid(cheap_point, {"nodes": [2]})
        start_run(str(tmp_path), grid, {"workers": 3, "checkpoint_interval": 0.5, "timeout": 9.0})
        _, options = load_manifest(str(tmp_path))
        assert options == {"workers": 3, "checkpoint_interval": 0.5, "max_retries": 2, "timeout": 9.0}
        run = open_run(str(tmp_path), workers=None)
        assert (run.workers, run.checkpoint_interval, run.max_retries, run.timeout) == (3, 0.5, 2, 9.0)
        assert open_run(str(tmp_path), workers=1).workers == 1
        # the same grid may carry new options
        assert start_run(str(tmp_path), grid, {"max_retries": 0}).max_retries == 0
        assert load_manifest(str(tmp_path))[1]["max_retries"] == 0

    def test_open_run_on_a_directory_without_a_manifest(self, tmp_path):
        with pytest.raises(RunDirError, match="sweep.json not found"):
            open_run(str(tmp_path / "nope"))

    def test_inject_crash_with_serial_is_rejected_not_ignored(self, tmp_path, cheap_point):
        run = start_run(str(tmp_path), SweepGrid(cheap_point, {"nodes": [2]}))
        with pytest.raises(ValueError, match="serial"):
            run.run(serial=True, inject_crash=1)
        assert len(run.store) == 0

    @pytest.mark.parametrize("door", ["sweep", "campaign"])
    def test_inject_crash_picks_the_first_pending_cells(self, tmp_path, monkeypatch, door, cheap_point):
        """On a half-finished directory the K crashes land on cells that
        will actually run, whichever door started the run."""
        monkeypatch.setattr(pool, "BACKOFF_BASE", 0.01)
        run_dir = str(tmp_path)
        if door == "sweep":
            grid = SweepGrid(cheap_point, {"nodes": [2, 3, 4]})
            crash_one = lambda: start_run(run_dir, grid, {"workers": 1}).run(inject_crash=1)
        else:
            from repro.campaign import CampaignSpec, run_campaign

            spec = CampaignSpec(
                strategies=("no-noise",), plans=("none",), loss_points=(0.0, 0.05), horizon=3.0
            )
            grid = spec.to_grid()
            crash_one = lambda: run_campaign(spec, run_dir, workers=1, inject_crash=1)
        first, second = grid.cells()[:2]
        start_run(run_dir, grid).store.append(run_cell_inline(first))
        status = crash_one()
        assert status.done and status.retries == 1
        attempts = {r.cell_id: r.attempts for r in ResultStore(str(tmp_path / STORE_NAME)).records()}
        assert attempts.pop(second.cell_id) == 2  # the first *pending* cell crashed once
        assert set(attempts.values()) == {1}
