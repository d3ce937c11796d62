"""Sweep-orchestrator scaling (results/sweep_scaling.txt): the worker
pool against the serial path.

The same 8-cell (config × seed) protocol grid through the one driver
twice, ``run(serial=True)`` in this process and ``run()`` fanned out
over 4 pool workers: wall-clock times and the speedup.
The ≥2× point needs ≥4 physical cores; on fewer the artefact still
proves that both paths produce identical metrics — the correctness
half of the claim, and the gate. Wall-clock columns: not pinned.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import List, Tuple

from ..orchestrator import SweepGrid, start_run
from .runner import Table

__all__ = ["artefact"]

WORKERS = 4


def artefact() -> "Tuple[List[str], List[str]]":
    grid = SweepGrid(
        "protocol",
        {"nodes": [4, 6, 8, 10]},
        seeds=(0, 1),
        base_params={"duration": 2.0, "messages": 1},
    )
    cores = os.cpu_count() or 1

    with tempfile.TemporaryDirectory(prefix="sweep-scaling-") as scratch:
        run = start_run(os.path.join(scratch, "serial"), grid)
        start = time.perf_counter()
        run.run(serial=True)
        serial_s = time.perf_counter() - start
        serial = run.store.latest()

        run = start_run(os.path.join(scratch, "pool"), grid, {"workers": WORKERS})
        start = time.perf_counter()
        status = run.run()
        parallel_s = time.perf_counter() - start
        parallel = run.store.latest()

    identical = set(serial) == set(parallel) and all(
        json.dumps(serial[c].metrics, sort_keys=True)
        == json.dumps(parallel[c].metrics, sort_keys=True)
        for c in serial
    )
    table = Table(
        headers=["cells", "workers", "cores", "serial s", "parallel s", "speedup", "identical"],
        title="Sweep orchestrator scaling (serial vs worker pool)",
    )
    table.add_row(
        len(grid),
        WORKERS,
        cores,
        f"{serial_s:.2f}",
        f"{parallel_s:.2f}",
        f"{serial_s / parallel_s:.2f}x",
        "yes" if identical else "NO",
    )
    body = table.render()
    if cores < WORKERS:
        body += (
            f"\n(only {cores} core(s) visible: speedup is core-bound; "
            "the >=2x acceptance point needs >=4 cores)"
        )
    failures = []
    if not status.done or status.failed:
        failures.append(f"parallel sweep did not complete cleanly: {status.render()}")
    if not identical:
        failures.append("serial and parallel sweeps disagree on metrics")
    return [body], failures
