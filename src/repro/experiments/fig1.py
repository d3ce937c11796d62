"""Figure 1: throughput vs N for Dissent v1 and Dissent v2.

The motivation figure (Section III): both existing freerider-resilient
protocols collapse as the system grows — v1 as 1/N² (all-to-all per
message), v2 as 1/N^{3/2} (trusted-server bottleneck with optimal
S ≈ √N). The sweep uses the validated analytic saturation model; the
``empirical_*`` helpers run the actual functional protocols at small N
and derive the same quantity from *counted wire copies*, which the
tests use to pin the model to the implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.costs import optimal_server_count
from ..analysis.throughput import GBPS, dissent_v1_throughput, dissent_v2_throughput
from ..baselines.dissent_v1 import DissentV1Group
from ..baselines.dissent_v2 import DissentV2System
from .runner import Table, format_rate, paper_sweep_sizes

__all__ = ["Figure1Result", "figure1", "empirical_dissent_v1_point", "empirical_dissent_v2_point"]


@dataclass
class Figure1Result:
    """The two series of Figure 1 (bits/s, indexed like ``sizes``)."""

    sizes: List[int]
    dissent_v1: List[float]
    dissent_v2: List[float]
    servers_used: List[int]

    def render(self) -> str:
        table = Table(
            headers=["N", "Dissent v1", "Dissent v2", "optimal S"],
            title="Figure 1 — throughput vs number of nodes (1 Gb/s links, 10 kB messages)",
        )
        for i, n in enumerate(self.sizes):
            table.add_row(
                n,
                format_rate(self.dissent_v1[i]),
                format_rate(self.dissent_v2[i]),
                self.servers_used[i],
            )
        return table.render()


def figure1(sizes: "Optional[List[int]]" = None, link_bps: float = GBPS) -> Figure1Result:
    """Regenerate Figure 1's data over the paper's sweep."""
    if sizes is None:
        sizes = paper_sweep_sizes()
    return Figure1Result(
        sizes=list(sizes),
        dissent_v1=[dissent_v1_throughput(n, link_bps) for n in sizes],
        dissent_v2=[dissent_v2_throughput(n, link_bps) for n in sizes],
        servers_used=[optimal_server_count(n) for n in sizes],
    )


def empirical_dissent_v1_point(
    n: int, message_length: int = 10_000, link_bps: float = GBPS, seed: int = 0
) -> float:
    """Per-node goodput (bits/s) derived from one real Dissent v1 round.

    One round delivers one anonymous message per member; the busiest
    node transmits ``copies/N`` message-copies, so the round takes
    ``copies/N * M * 8 / C`` seconds and each node receives its one
    message per round.
    """
    group = DissentV1Group(n, message_length=message_length, seed=seed)
    outcome = group.run_round([b"x" * message_length] * n)
    if not outcome.success:
        raise RuntimeError("an all-honest round must succeed")
    per_node_copies = outcome.messages_on_wire / n
    round_time = per_node_copies * message_length * 8 / link_bps
    return message_length * 8 / round_time


def empirical_dissent_v2_point(
    n: int,
    message_length: int = 10_000,
    link_bps: float = GBPS,
    servers: "Optional[int]" = None,
    seed: int = 0,
) -> float:
    """Per-node goodput (bits/s) from one real Dissent v2 round.

    The busiest *server* bounds the round; each client receives its one
    message per round.
    """
    system = DissentV2System(n, server_count=servers, message_length=message_length, seed=seed)
    outcome = system.run_round([b"x" * message_length] * n)
    if not outcome.success:
        raise RuntimeError("an all-honest round must succeed")
    round_time = outcome.bottleneck_server_copies * message_length * 8 / link_bps
    return message_length * 8 / round_time
