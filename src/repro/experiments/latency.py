"""Delivery-latency experiment (an extension beyond the paper).

The paper reports only throughput; a downstream user also cares how
long an anonymous message takes. Latency in RAC is dominated by the
origination slots: the message occupies L+1 slots spread over distinct
nodes' staggered schedules, so the expected end-to-end latency is
roughly ``(L+1)/2 · interval`` queueing plus per-hop dissemination.
This harness measures the distribution per relay count next to the
:mod:`repro.analysis.queueing` prediction for the run's own config, and
checks the linear-in-L growth — the latency face of the anonymity
tradeoff.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..analysis.queueing import predicted_latency
from .runner import Table

__all__ = ["LatencyPoint", "measure_latency", "latency_vs_relays", "render_latency"]


@dataclass
class LatencyPoint:
    """Latency distribution for one configuration."""

    num_relays: int
    nodes: int
    samples: int
    mean: float
    p50: float
    p95: float
    #: :func:`repro.analysis.queueing.predicted_latency` for this run.
    model: float


def measure_latency(
    num_relays: int,
    population: int = 12,
    messages: int = 20,
    seed: int = 71,
) -> LatencyPoint:
    """Deliver ``messages`` across random pairs; collect latencies."""
    from ..scenario import Scenario, prepare

    run = prepare(Scenario(
        nodes=population,
        horizon=1.2 + messages * 0.3 + 4.0,
        seed=seed,
        config=dict(
            num_relays=num_relays, relay_timeout=3.0, predecessor_timeout=1.0, rate_window=2.0,
            blacklist_period=0.0,
        ),
        traffic="ring", messages=0,
    ))
    try:
        system, nodes = run.system, run.node_ids
        system.run(1.2)
        rng = random.Random(seed)
        for i in range(messages):
            src = rng.choice(nodes)
            dst = rng.choice([n for n in nodes if n != src])
            system.send(src, dst, b"latency-%04d" % i)
            system.run(0.3)
        system.run(4.0)
        meter = system.latency_meter
        if len(meter) == 0:
            raise RuntimeError("no deliveries to measure")
        slot = system.send_interval_for(nodes[0])
        group_size = len(system.directory.group_of_node(nodes[0]))
        config = system.config
        return LatencyPoint(
            num_relays=num_relays,
            nodes=population,
            samples=len(meter),
            mean=meter.mean(),
            p50=meter.percentile(50),
            p95=meter.percentile(95),
            model=predicted_latency(
                num_relays, slot, group_size, config.message_size, config.link_bandwidth_bps
            ),
        )
    finally:
        run.close()


def latency_vs_relays(relay_counts=(1, 2, 3, 4), **kwargs) -> "List[LatencyPoint]":
    """The latency ablation over the onion path length L."""
    return [measure_latency(L, **kwargs) for L in relay_counts]


def render_latency(points: "List[LatencyPoint]") -> str:
    table = Table(
        headers=["L (relays)", "samples", "mean", "p50", "p95", "model"],
        title=f"Delivery latency vs onion path length ({points[0].nodes} nodes, 50 ms slots)",
    )
    for p in points:
        table.add_row(
            p.num_relays,
            p.samples,
            f"{p.mean * 1000:.0f} ms",
            f"{p.p50 * 1000:.0f} ms",
            f"{p.p95 * 1000:.0f} ms",
            f"{p.model * 1000:.0f} ms",
        )
    return table.render()
