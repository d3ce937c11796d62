"""Packet-level RAC throughput measurement (validates the model).

Reproduces the paper's workload inside :mod:`repro.simnet`: *"Each node
randomly selects a destination node and sends anonymous messages to
this node at the maximum throughput it can sustain"*. Saturation is
reached by pre-filling every node's send queue and letting the
origination interval equal the link-capacity share computed by
:meth:`repro.core.config.RacConfig.saturation_interval`.

A 100 000-node packet simulation is out of reach for pure Python (the
repro band's ``repro_why``); this module exists to *pin the analytic
curves to the real protocol* at simulable sizes — the integration tests
assert the measured/model ratio is stable across N, which is exactly
the scaling claim of Figure 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RacMeasurement", "measure_rac_throughput"]

#: ``RacConfig.small`` at saturation. Event count scales with C
#: (saturation interval ~ 1/C), and both the measurement and the model
#: scale linearly in C, so a slower link keeps pure-Python packet
#: simulation tractable without touching the comparison (DESIGN.md §2,
#: substitution 3). No shuffles during the measurement.
SATURATION = dict(
    send_interval=None,
    relay_timeout=4.0,
    predecessor_timeout=2.0,
    rate_window=4.0,
    blacklist_period=0.0,
    link_bandwidth_bps=50e6,
)

#: Own messages each sender keeps queued.
QUEUE_DEPTH = 64


@dataclass
class RacMeasurement:
    """One packet-level throughput sample."""

    nodes: int
    measured_bps_per_node: float
    model_bps_per_node: float
    deliveries: int
    evictions: int
    duration: float

    @property
    def efficiency(self) -> float:
        """measured / model; < 1 because of headers, control traffic
        and the relay slots that displace data slots."""
        if self.model_bps_per_node == 0:
            return 0.0
        return self.measured_bps_per_node / self.model_bps_per_node


def measure_rac_throughput(
    n: int,
    warmup: float = 2.0,
    duration: float = 6.0,
    seed: int = 1,
) -> RacMeasurement:
    """Run RAC at saturation for ``duration`` seconds (after warm-up).

    Returns per-node receive goodput next to the analytic prediction
    ``C / ((L+1)·R·G)`` for the same parameters.
    """
    from ..scenario import Scenario, prepare

    if n < 2:
        raise ValueError(f"a throughput measurement needs at least two nodes, got {n}")
    run = prepare(Scenario(
        nodes=n,
        horizon=warmup + duration,
        seed=seed,
        config=SATURATION,
        traffic="ring", messages=0,
    ))
    try:
        system, nodes, config = run.system, run.node_ids, run.system.config

        # Every node sends to one fixed random destination; queues are
        # topped up in chunks so senders never starve (the paper's "at the
        # highest possible throughput it can sustain").
        rng = random.Random(seed + 1)
        flows = {src: rng.choice([x for x in nodes if x != src]) for src in nodes}

        def refill() -> None:
            for src, dst in flows.items():
                node, peer = system.nodes.get(src), system.nodes.get(dst)
                if node is None or peer is None or not (node.active and peer.active):
                    continue  # an evicted end, skipped as scenario._pump skips it
                while len(node.send_queue) < QUEUE_DEPTH:
                    if not system.send(src, dst, b"p" * (config.message_size // 4)):
                        break

        def run_refilled(span: float, chunk: float = 0.25) -> None:
            remaining = span
            while remaining > 1e-12:
                refill()
                step = min(chunk, remaining)
                system.run(step)
                remaining -= step

        run_refilled(warmup)
        start = system.now
        delivered_before = system.global_meter.count
        run_refilled(duration)
        window = system.now - start
        delivered = system.global_meter.count - delivered_before
        # The paper counts anonymous *messages* of the padded size; we
        # credit the padded message size per delivery to match its metric.
        delivered_bits = delivered * config.message_size * 8

        group_size = min(n, config.group_max)
        model = config.link_bandwidth_bps / (
            (config.num_relays + 1) * config.num_rings * group_size
        )
        return RacMeasurement(
            nodes=n,
            measured_bps_per_node=delivered_bits / window / n,
            model_bps_per_node=model,
            deliveries=delivered,
            evictions=len(run.outcome().evictions),
            duration=window,
        )
    finally:
        run.close()
