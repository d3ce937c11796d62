"""The sharded-simulator scaling curve (results/scaling_curve.txt).

The monolithic event loop tops out around N=64 on one core (a 64-node
run of 6 sim-seconds is 5,905,848 events); the group-sharded engine
(:mod:`repro.simnet.shard`) pushes the same protocol to N=1024+ by
running one deterministic sub-simulator per group bundle and exchanging
cross-group records at epoch barriers.

This module measures that curve with the exact code path ``repro
scale run`` uses, and is the shared methodology for both the committed
artifact (the ``scaling_curve`` row of :mod:`.artefacts`) and the N=64
``sharded_events_per_sec`` gate of ``BENCH_protocol.json``
(``benchmarks/baseline.py``), so the bench gate and the artifact can
never disagree on what was measured.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, List, Tuple

__all__ = ["SCALE_POINTS", "measure_point", "artefact"]

#: (nodes, shards) of the committed curve. Shard counts grow with N so
#: per-shard population stays roughly constant (~64 nodes).
SCALE_POINTS: "Tuple[Tuple[int, int], ...]" = ((64, 2), (256, 8), (1024, 16))

#: Sim-seconds per point. Two epochs: enough for traffic to cross the
#: first epoch barrier, short enough that N=1024 completes on one core.
HORIZON = 2.0


def _scenario(nodes: int, horizon: float, seed: int):
    from ..scenario import Scenario

    return Scenario.from_params({"nodes": nodes, "horizon": horizon}, seed, "scale")


def measure_point(
    nodes: int, shards: int, horizon: float = HORIZON, seed: int = 7
) -> "Dict[str, object]":
    """Run one sharded scale point serially (1 s epochs) and report its metrics."""
    from ..scenario import run_scenario
    from ..simnet.shard import epoch_ends

    with tempfile.TemporaryDirectory(prefix=f"rac_scale_{nodes}_") as run_dir:
        started = time.perf_counter()
        outcome = run_scenario(
            _scenario(nodes, horizon, seed), "sharded", shards=shards, run_dir=run_dir, serial=True
        )
        wall = time.perf_counter() - started
        shard_nodes = []
        for shard in range(shards):
            with open(os.path.join(run_dir, "summary", f"shard{shard:03d}.json"), encoding="utf-8") as fh:
                shard_nodes.append(json.load(fh)["nodes"])
    events = int(outcome.counters["sim_events_processed"])
    *shard_fingerprints, merged = outcome.fingerprints
    return {
        "nodes": nodes,
        "shards": shards,
        "horizon": horizon,
        "seed": seed,
        "epochs": len(epoch_ends(horizon, 1.0)),
        "wall_seconds": round(wall, 2),
        "events_processed": events,
        "events_per_sec": round(events / wall),
        "delivered": len(outcome.deliveries),
        "evicted": len(outcome.evictions),
        "shard_fingerprints": shard_fingerprints,
        "merged_fingerprint": merged,
        "shard_nodes": shard_nodes,
    }


def render_curve(points: "List[Dict[str, object]]", equivalence: str) -> str:
    """The measured points plus the N=64 sharded-vs-monolithic verdict."""
    lines = [
        "Sharded-simulator scaling curve",
        "================================",
        "",
        f"{'N':>6} {'shards':>6} {'epochs':>6} {'events':>10} "
        f"{'wall_s':>8} {'events/s':>10} {'delivered':>9}",
    ]
    for p in points:
        lines.append(
            f"{p['nodes']:>6} {p['shards']:>6} {p['epochs']:>6} "
            f"{p['events_processed']:>10} {p['wall_seconds']:>8.2f} "
            f"{p['events_per_sec']:>10,} {p['delivered']:>9}"
        )
    lines.append("")
    lines.append("Per-shard determinism fingerprints (chained SHA-256 per epoch):")
    for p in points:
        lines.append(f"  N={p['nodes']} ({p['shards']} shards):")
        for shard, fp in enumerate(p["shard_fingerprints"]):
            lines.append(f"    shard {shard:3d} [{p['shard_nodes'][shard]:4d} nodes] {fp}")
        lines.append(f"    merged {p['merged_fingerprint']}")
    lines.append("")
    lines.append("N=64 sharded vs monolithic equivalence:")
    lines.extend("  " + line for line in equivalence.splitlines())
    return "\n".join(lines) + "\n"


def artefact() -> "Tuple[List[str], List[str]]":
    """Measure every point; equivalence-check the smallest against the
    monolithic simulator."""
    from ..scenario import compare_outcomes, run_scenario

    points = [measure_point(nodes, shards) for nodes, shards in SCALE_POINTS]
    nodes, shards = SCALE_POINTS[0]
    scenario = _scenario(nodes, HORIZON, points[0]["seed"])
    sharded = run_scenario(scenario, "sharded", shards=shards, serial=True)
    equivalent, comparison = compare_outcomes(sharded, run_scenario(scenario))
    failures = [] if equivalent else [f"N={nodes} sharded and monolithic runs differ"]
    return [render_curve(points, comparison)], failures
