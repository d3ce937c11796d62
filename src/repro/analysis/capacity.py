"""Capacity planning: groups × members → msg/s at anonymity degree k.

RAC's costs make capacity planning unusually clean, because the
protocol's defining property — every group member transmits every
slot, message or cover — fixes the arithmetic (DESIGN.md §2):

* one origination slot floods one padded message of ``M`` bytes over
  ``R`` rings: per-member work ``R·g·M·8`` bits per slot in a group of
  ``g``, so a ``C`` bps uplink sustains ``C / (R·g·M·8)`` slots/s per
  member — and ``C / (R·M·8)`` slots/s per *group* (the ``g`` cancels:
  more members bring more uplinks and exactly that much more cover);
* an anonymous message burns ``L+1`` slots (the onion's relay hops),
  so one group delivers ``C / ((L+1)·R·M·8)`` anonymous msg/s —
  **independent of its size**. Group size buys anonymity degree
  (``k = g``: the anonymity set is the group), never throughput;
* groups are the scaling axis: ``G`` groups deliver ``G×`` that rate;
* a publish to a topic with ``s`` subscribers is ``s`` anonymous
  messages (one onion per subscriber pseudonym key, §IV-C), dividing
  publish capacity by the fan-out.

So "how many groups × members serve X msg/s at degree k?" inverts to
``G = ceil(X·s / per_group_rate)`` and ``N = G·k`` — the table
``repro results make pubsub_capacity`` commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.config import RacConfig

__all__ = ["CapacityModel", "CapacityPoint", "capacity_table", "render_capacity_table"]


@dataclass(frozen=True)
class CapacityPoint:
    """One answer: the deployment serving a target at a degree."""

    target_msgs_per_sec: float
    anonymity_degree: int
    subscribers_per_topic: int
    groups: int
    members: int
    group_msgs_per_sec: float
    publishes_per_sec: float


class CapacityModel:
    """Analytic capacity of one RAC pub/sub deployment shape."""

    def __init__(self, config: "Optional[RacConfig]" = None) -> None:
        self.config = config if config is not None else RacConfig()

    def slots_per_sec_per_group(self) -> float:
        """Origination slots one group completes per second (size-free:
        members scale uplinks and cover in lockstep)."""
        return self.config.link_bandwidth_bps / (
            self.config.num_rings * self.config.message_size * 8
        )

    def group_msgs_per_sec(self) -> float:
        """Anonymous deliveries one group sustains per second."""
        return self.slots_per_sec_per_group() / (self.config.num_relays + 1)

    def system_msgs_per_sec(self, groups: int) -> float:
        return groups * self.group_msgs_per_sec()

    def publishes_per_sec(self, groups: int, subscribers_per_topic: int) -> float:
        """Topic publishes per second: fan-out divides the budget."""
        if subscribers_per_topic < 1:
            raise ValueError("a publish needs at least one subscriber")
        return self.system_msgs_per_sec(groups) / subscribers_per_topic

    def plan(
        self,
        target_msgs_per_sec: float,
        anonymity_degree: int,
        subscribers_per_topic: int = 1,
    ) -> CapacityPoint:
        """The smallest deployment serving ``target`` publishes/s with
        every subscriber hidden in a group of ``anonymity_degree``."""
        if target_msgs_per_sec <= 0:
            raise ValueError("target rate must be positive")
        if anonymity_degree < self.config.group_min:
            raise ValueError(
                f"anonymity degree {anonymity_degree} is below group_min="
                f"{self.config.group_min}"
            )
        per_group = self.group_msgs_per_sec()
        groups = max(
            1, math.ceil(target_msgs_per_sec * subscribers_per_topic / per_group)
        )
        return CapacityPoint(
            target_msgs_per_sec=target_msgs_per_sec,
            anonymity_degree=anonymity_degree,
            subscribers_per_topic=subscribers_per_topic,
            groups=groups,
            members=groups * anonymity_degree,
            group_msgs_per_sec=per_group,
            publishes_per_sec=self.publishes_per_sec(groups, subscribers_per_topic),
        )


def capacity_table(
    config: "Optional[RacConfig]" = None,
    *,
    targets: "Sequence[float]" = (1.0, 10.0, 100.0, 1000.0),
    degrees: "Sequence[int]" = (500, 1000, 2000),
    subscribers: "Sequence[int]" = (1, 10, 100),
) -> "List[CapacityPoint]":
    """The full grid the committed artifact tabulates."""
    model = CapacityModel(config)
    points: "List[CapacityPoint]" = []
    for degree in degrees:
        for subs in subscribers:
            for target in targets:
                points.append(model.plan(target, degree, subs))
    return points


def render_capacity_table(
    points: "List[CapacityPoint]", config: "Optional[RacConfig]" = None
) -> str:
    config = config if config is not None else RacConfig()
    model = CapacityModel(config)
    lines = [
        "pub/sub capacity model: groups x members -> msg/s at anonymity degree k",
        f"  config: L={config.num_relays} relays, R={config.num_rings} rings, "
        f"M={config.message_size}B messages, C={config.link_bandwidth_bps / 1e6:g} Mb/s uplinks",
        f"  per-group delivery rate: {model.group_msgs_per_sec():.3f} anonymous msg/s "
        "(size-free: members add uplinks and cover in lockstep)",
        "",
        f"  {'k':>6} {'subs/topic':>10} {'target msg/s':>12} {'groups':>8} "
        f"{'members':>10} {'publishes/s':>12}",
    ]
    for p in points:
        lines.append(
            f"  {p.anonymity_degree:>6} {p.subscribers_per_topic:>10} "
            f"{p.target_msgs_per_sec:>12g} {p.groups:>8} {p.members:>10} "
            f"{p.publishes_per_sec:>12.3f}"
        )
    lines.append("")
    lines.append(
        "  reading: to publish `target` msg/s to topics of `subs` subscribers with"
    )
    lines.append(
        "  every subscriber hidden among k group members, deploy `groups` groups"
    )
    lines.append(
        "  (= groups*k members). Anonymity is paid in members, throughput in groups."
    )
    return "\n".join(lines)
