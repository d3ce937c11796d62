"""Trace-driven workloads: diurnal churn and the publish schedule.

WAN deployments do not fail like chaos plans — they *breathe*. Nodes in
one timezone leave in the evening and return in the morning, and the
publish rate follows the same rhythm. This module compiles both kinds
of trace onto machinery the repo already trusts:

* :func:`diurnal_churn_plan` turns a topology's region tags into a
  seeded :class:`repro.chaos.plan.FaultPlan` of phased crash-restart
  events — one "day" spread over the run horizon, each region going
  dark in turn — so the sim compiler, the live supervisor, and the
  invariant checker all consume it through the existing plan interface
  (fingerprint and all);
* :func:`publish_times` lays the round-robin traffic's origination
  times out on a fixed interval.

Nothing here executes anything: traces are data, compiled determinist-
ically from ``(model, horizon, seed)``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..chaos.plan import FaultPlan
from .model import TopologyModel

__all__ = ["diurnal_churn_plan", "publish_times"]


def diurnal_churn_plan(
    model: TopologyModel,
    population: int,
    horizon: float,
    seed: int = 0,
    *,
    churn_fraction: float = 0.5,
    night_fraction: float = 0.22,
    settle: float = 2.0,
) -> FaultPlan:
    """One simulated day of region-phased churn as a FaultPlan.

    The horizon is one day; each region's "night" is a window of
    ``night_fraction * horizon`` whose start is phased by region index
    (region 0 sleeps first). Within each region, a seeded choice of
    ``churn_fraction`` of its nodes (always leaving at least one up)
    crash at jittered offsets inside the window and restart at its end,
    clamped so every restart lands at least ``settle`` seconds before
    the horizon — a trace must end with the population healed, or the
    final invariant check would judge a half-dark system.
    """
    if not 0.0 <= churn_fraction <= 1.0:
        raise ValueError("churn_fraction must be in [0, 1]")
    if not 0.0 < night_fraction < 0.5:
        raise ValueError("night_fraction must be in (0, 0.5)")
    rng = random.Random((seed << 8) ^ 0xD1DA)
    plan = FaultPlan(seed=seed, horizon=horizon)

    by_region: "Dict[int, List[int]]" = {}
    for index in range(population):
        by_region.setdefault(model.region(model.slot(index)), []).append(index)

    regions = sorted(by_region)
    night_len = night_fraction * horizon
    for order, region in enumerate(regions):
        members = by_region[region]
        sleepers = max(0, min(len(members) - 1, round(churn_fraction * len(members))))
        if sleepers == 0:
            continue
        chosen = sorted(rng.sample(members, sleepers))
        night_start = (0.1 + order / max(1, len(regions))) * horizon * 0.8
        for node in chosen:
            at = night_start + rng.uniform(0.0, 0.25 * night_len)
            wake = night_start + night_len
            wake = min(wake, horizon - settle)
            if wake <= at + 0.1:
                continue
            plan.crash_restart(node, at=round(at, 3), downtime=round(wake - at, 3))
    return plan


def publish_times(horizon: float, base_interval: float, *, start: float = 0.2) -> "List[float]":
    """Origination times every ``base_interval`` seconds from ``start``
    up to the horizon, accumulated step by step (the float sums the
    round-robin payloads of every pinned run were scheduled at)."""
    if base_interval <= 0:
        raise ValueError("base_interval must be positive")
    times: "List[float]" = []
    t = start
    while t < horizon:
        times.append(round(t, 6))
        t += base_interval
    return times
