"""Message-complexity comparison (Section III's cost notation, tabled).

The paper argues in ``x * Bcast(y)`` terms; this harness evaluates the
cost models side by side — total message copies per anonymous
communication and per-node work at the bottleneck — for a sweep of
system sizes, making the scalability argument quantitative *before*
any throughput measurement:

* Dissent v1: ``N * Bcast(N)`` → N² copies;
* Dissent v2 (optimal S≈√N): ``Bcast(N/S) + S * Bcast(S)`` → ~2N^1.5
  copies crossing the server tier;
* RAC grouped: ``(L−1)·R·Bcast(G) + R·Bcast(2G) = (L+1)·R·Bcast(G)`` —
  independent of N;
* onion routing: L copies (the efficiency bound RAC pays R·G over).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.costs import (
    dissent_v1_cost,
    dissent_v2_cost,
    onion_routing_cost,
    optimal_server_count,
    rac_cost,
)
from .runner import Table

__all__ = ["ComparisonRow", "complexity_comparison", "render_comparison"]


@dataclass
class ComparisonRow:
    """Per-protocol copy counts at one system size."""

    nodes: int
    onion: float
    dissent_v1: float
    dissent_v2: float
    rac_grouped: float
    servers: int


def complexity_comparison(
    sizes=(100, 1000, 10_000, 100_000),
    G: int = 1000,
    L: int = 5,
    R: int = 7,
) -> "List[ComparisonRow]":
    """Total copies per anonymous message, per protocol and size."""
    return [
        ComparisonRow(
            nodes=n,
            onion=onion_routing_cost(L).total_copies(),
            dissent_v1=dissent_v1_cost(n).total_copies(),
            dissent_v2=dissent_v2_cost(n).total_copies(),
            rac_grouped=rac_cost(n, G, L, R).total_copies(),
            servers=optimal_server_count(n),
        )
        for n in sizes
    ]


def render_comparison(rows: "List[ComparisonRow]") -> str:
    table = Table(
        headers=["N", "Onion", "Dissent v1", "Dissent v2 (S*)", "RAC (G=1000)"],
        title="Message copies per anonymous communication (Section III cost models)",
    )
    for row in rows:
        table.add_row(
            row.nodes,
            f"{row.onion:,.0f}",
            f"{row.dissent_v1:,.0f}",
            f"{row.dissent_v2:,.0f} (S={row.servers})",
            f"{row.rac_grouped:,.0f}",
        )
    return table.render()
