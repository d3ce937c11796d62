"""Durable JSONL result store with a versioned record schema.

One line per finished cell attempt. The schema is versioned so a store
written by this code is readable by future aggregators (and an
incompatible future store fails loudly instead of mis-aggregating):

``schema=1`` record fields:

* ``cell_id`` / ``experiment`` / ``config_hash`` / ``params`` /
  ``seed`` — identity (see :mod:`repro.orchestrator.grid`);
* ``git_rev`` — the code revision that produced the numbers;
* ``status`` — ``"ok"`` or ``"failed"``; ``attempts`` — how many
  launches the cell needed (> 1 means crashed/hung workers were
  retried);
* ``wall_time_s`` / ``sim_time_s`` — cost accounting;
* ``metrics`` — the experiment's flat name → number dict;
* ``finished_at`` — ISO-8601 UTC wall-clock stamp;
* ``error`` — present on failed records only.

Appends are atomic at line granularity (single ``write`` of one line,
flushed and fsynced), so a SIGKILLed orchestrator leaves a readable
store — the resume path depends on that. Re-runs of a cell append a
fresh line; readers resolve duplicates as *last record wins*.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import os
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

__all__ = ["RESULT_SCHEMA_VERSION", "ResultRecord", "ResultStore", "StoreSchemaError", "git_revision"]

RESULT_SCHEMA_VERSION = 1


class StoreSchemaError(Exception):
    """A store line does not parse as a known record schema."""


@functools.lru_cache(maxsize=None)
def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``; one
    ``git`` fork per process, not one per record."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _utcnow_iso() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


@dataclass
class ResultRecord:
    """One finished (or finally-failed) sweep cell."""

    cell_id: str
    experiment: str
    config_hash: str
    params: Dict[str, Any]
    seed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    status: str = "ok"
    attempts: int = 1
    wall_time_s: float = 0.0
    sim_time_s: float = 0.0
    git_rev: str = ""
    finished_at: str = ""
    error: "Optional[str]" = None
    schema: int = RESULT_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.status not in ("ok", "failed"):
            raise ValueError(f"status must be 'ok' or 'failed', not {self.status!r}")
        if not self.finished_at:
            self.finished_at = _utcnow_iso()
        if not self.git_rev:
            self.git_rev = git_revision()

    def to_json(self) -> str:
        body: Dict[str, Any] = {
            "schema": self.schema,
            "cell_id": self.cell_id,
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "params": self.params,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_s": round(self.wall_time_s, 6),
            "sim_time_s": round(self.sim_time_s, 6),
            "metrics": self.metrics,
            "git_rev": self.git_rev,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            body["error"] = self.error
        return json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreSchemaError(f"unparseable store line: {exc}") from exc
        if not isinstance(body, dict):
            raise StoreSchemaError("store line is not a JSON object")
        version = body.get("schema")
        if version != RESULT_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"record schema {version!r} is not the supported {RESULT_SCHEMA_VERSION}"
            )
        try:
            return cls(
                cell_id=body["cell_id"],
                experiment=body["experiment"],
                config_hash=body["config_hash"],
                params=body["params"],
                seed=body["seed"],
                metrics=body.get("metrics", {}),
                status=body["status"],
                attempts=body.get("attempts", 1),
                wall_time_s=body.get("wall_time_s", 0.0),
                sim_time_s=body.get("sim_time_s", 0.0),
                git_rev=body.get("git_rev", "unknown"),
                finished_at=body.get("finished_at", ""),
                error=body.get("error"),
                schema=version,
            )
        except KeyError as exc:
            raise StoreSchemaError(f"record is missing required field {exc}") from exc


class ResultStore:
    """Append-only record collection; JSONL-backed or in-memory.

    With ``path=None`` the store lives in memory only.
    """

    def __init__(self, path: "Optional[str]" = None) -> None:
        self.path = path
        self._records: List[ResultRecord] = []
        if path is not None and os.path.exists(path):
            self.reload()

    # -- writing -------------------------------------------------------------
    def append(self, record: ResultRecord) -> None:
        if self.path is not None:
            line = record.to_json() + "\n"
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
        self._records.append(record)

    # -- reading -------------------------------------------------------------
    def reload(self) -> None:
        """Re-read the backing file (other processes may have appended)."""
        if self.path is None:
            return
        records: List[ResultRecord] = []
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        records.append(ResultRecord.from_json(line))
        self._records = records

    def records(self) -> "List[ResultRecord]":
        return list(self._records)

    def latest(self) -> "Dict[str, ResultRecord]":
        """Last record per cell id (re-runs supersede earlier lines)."""
        by_id: Dict[str, ResultRecord] = {}
        for record in self._records:
            by_id[record.cell_id] = record
        return by_id

    def completed_ids(self) -> "Set[str]":
        """Cells whose latest record succeeded — the resume skip-set."""
        return {cid for cid, rec in self.latest().items() if rec.status == "ok"}

    def failed_ids(self) -> "Set[str]":
        return {cid for cid, rec in self.latest().items() if rec.status == "failed"}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, cell_id: str) -> bool:
        return cell_id in self.completed_ids()

    # -- aggregation (`repro sweep aggregate`) --------------------------------
    def aggregate(
        self,
        metric: str,
        by: str = "seed",
        where: "Optional[Mapping[str, Any]]" = None,
        *,
        with_skipped: bool = False,
    ):
        """Grouped summary rows: key, n, mean, min, max of ``metric``.

        Only successful records contribute. A matching record without
        the metric (a heterogeneous store — e.g. campaign cells mixed
        with protocol cells) is counted, not crashed on, and
        ``with_skipped=True`` returns ``(rows, skipped)``.
        """
        buckets: Dict[Any, List[float]] = {}
        skipped = 0
        for rec in self.latest().values():
            if rec.status != "ok":
                continue
            if where and any(rec.params.get(k) != v for k, v in where.items()):
                continue
            if metric not in rec.metrics:
                skipped += 1
                continue
            key = rec.seed if by == "seed" else rec.params.get(by)
            buckets.setdefault(key, []).append(rec.metrics[metric])
        rows = []
        for key in sorted(buckets, key=lambda k: (k is None, repr(k) if not isinstance(k, (int, float)) else k)):
            values = buckets[key]
            rows.append(
                {
                    by: key,
                    "n": len(values),
                    "mean": sum(values) / len(values),
                    "min": min(values),
                    "max": max(values),
                }
            )
        if with_skipped:
            return rows, skipped
        return rows
