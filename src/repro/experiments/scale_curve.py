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

import tempfile
from typing import Dict, List, Tuple

from ..orchestrator.sharded import run_sharded, verify_sharded
from ..simnet.shard import ScaleSpec

__all__ = ["SCALE_POINTS", "measure_point", "artefact"]

#: (nodes, shards) of the committed curve. Shard counts grow with N so
#: per-shard population stays roughly constant (~64 nodes).
SCALE_POINTS: "Tuple[Tuple[int, int], ...]" = ((64, 2), (256, 8), (1024, 16))

#: Sim-seconds per point. Two epochs: enough for traffic to cross the
#: first epoch barrier, short enough that N=1024 completes on one core.
HORIZON = 2.0


def measure_point(
    nodes: int, shards: int, horizon: float = HORIZON, seed: int = 7
) -> "Dict[str, object]":
    """Run one sharded scale point serially and report its metrics."""
    spec = ScaleSpec(nodes=nodes, num_shards=shards, seed=seed, horizon=horizon)
    with tempfile.TemporaryDirectory(prefix=f"rac_scale_{nodes}_") as run_dir:
        outcome = run_sharded(spec, run_dir, serial=True)
    return {
        "nodes": nodes,
        "shards": shards,
        "horizon": horizon,
        "seed": seed,
        "epochs": spec.epoch_count,
        "wall_seconds": round(outcome.wall_seconds, 2),
        "events_processed": outcome.events_processed,
        "events_per_sec": round(outcome.events_per_second),
        "delivered": len(outcome.delivered),
        "evicted": len(outcome.evicted),
        "shard_fingerprints": list(outcome.shard_fingerprints),
        "merged_fingerprint": outcome.merged_fingerprint,
        "shard_nodes": [s["nodes"] for s in outcome.per_shard],
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
    points = [measure_point(nodes, shards) for nodes, shards in SCALE_POINTS]
    nodes, shards = SCALE_POINTS[0]
    spec = ScaleSpec(nodes=nodes, num_shards=shards, seed=points[0]["seed"], horizon=HORIZON)
    with tempfile.TemporaryDirectory(prefix="rac_scale_verify_") as run_dir:
        report = verify_sharded(run_sharded(spec, run_dir, serial=True))
    failures = [] if report.equivalent else [f"N={nodes} sharded and monolithic runs differ"]
    return [render_curve(points, report.render())], failures
