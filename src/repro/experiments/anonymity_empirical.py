"""Empirical anonymity: measure what the global opponent achieves.

Table I gives closed-form bounds; this harness produces their
*measured* counterpart. For each population size it runs real traffic
under a full-tap :class:`repro.analysis.observer.GlobalObserver` and
reports:

* sender-attribution accuracy vs chance (1/G);
* the degree of anonymity of the observer's posterior (Díaz/Serjantov);
* traffic-rate uniformity (the constant-rate cover working, or not).

The accuracy column should hug the chance column at every size — that
is RAC's sender anonymity as an experiment rather than a formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..analysis.metrics import degree_of_anonymity
from ..analysis.observer import GlobalObserver
from .runner import Table

__all__ = ["AnonymityMeasurement", "measure_anonymity", "anonymity_vs_population", "render_anonymity"]


@dataclass
class AnonymityMeasurement:
    """One observed-population anonymity sample."""

    population: int
    flows: int
    attribution_accuracy: float
    chance_level: float
    anonymity_degree: float
    rate_uniformity: float


def measure_anonymity(
    population: int,
    flows: int = 8,
    seed: int = 151,
    observe_seconds: float = 6.0,
) -> AnonymityMeasurement:
    """Run traffic under a global tap and attack the log."""
    from ..scenario import Scenario, prepare

    run = prepare(Scenario(
        nodes=population,
        horizon=1.2 + observe_seconds,
        seed=seed,
        config=dict(blacklist_period=0.0),
        traffic="ring", messages=0,
    ))
    try:
        system, nodes = run.system, run.node_ids
        observer = GlobalObserver(system, rng_seed=seed + 1)
        observer.attach()
        system.run(1.2)

        rng = random.Random(seed + 2)
        flow_pairs = []
        for i in range(flows):
            src = rng.choice(nodes)
            dst = rng.choice([n for n in nodes if n != src])
            if system.send(src, dst, b"observed-%02d" % i):
                flow_pairs.append((src, dst))
        system.run(observe_seconds)

        msg_ids = observer.observed_message_ids()
        samples = [(msg_ids[i], src) for i, (src, _dst) in enumerate(flow_pairs)]
        accuracy = observer.sender_attribution_accuracy(samples)
        result = observer.attribute_sender(msg_ids[0], flow_pairs[0][0])
        n_candidates = max(1, result.anonymity_set_size)
        degree = degree_of_anonymity([1.0 / n_candidates] * n_candidates)
        return AnonymityMeasurement(
            population=population,
            flows=len(flow_pairs),
            attribution_accuracy=accuracy,
            chance_level=1.0 / population,
            anonymity_degree=degree,
            rate_uniformity=observer.rate_uniformity(),
        )
    finally:
        run.close()


def anonymity_vs_population(populations=(8, 12, 16), **kwargs) -> "List[AnonymityMeasurement]":
    return [
        measure_anonymity(population, seed=151 + population, **kwargs)
        for population in populations
    ]


def render_anonymity(points: "List[AnonymityMeasurement]") -> str:
    table = Table(
        headers=["G", "flows", "attribution", "chance", "degree d", "rate max/mean"],
        title="Empirical sender anonymity under a global passive observer",
    )
    for p in points:
        table.add_row(
            p.population,
            p.flows,
            f"{p.attribution_accuracy:.2f}",
            f"{p.chance_level:.2f}",
            f"{p.anonymity_degree:.3f}",
            f"{p.rate_uniformity:.2f}",
        )
    return table.render()
