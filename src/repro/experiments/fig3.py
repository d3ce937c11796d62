"""Figure 3: throughput vs N for RAC-NoGroup, RAC-1000, Dissent v1/v2.

The headline result (Section VI-C): RAC-1000's throughput is flat once
N exceeds the group size — adding nodes adds groups, not per-node work
— while every baseline decays. The paper's anchor points:

* both RAC configurations coincide below N = 1000 (one group);
* at N = 100 000, RAC-NoGroup ≈ 15 × Dissent v2 and RAC-1000 ≈
  1300 × Dissent v2 (our analytic model gives 15.1 × and ~1500 ×;
  the paper's simulated Dv2 point carries overheads the closed form
  ignores — shape, not constants, is the reproduction target);
* onion routing at L = 5 sustains 200 Mb/s (Section VI-C's sanity
  anchor, C/L).

``repro.experiments.empirical.measure_rac_throughput`` provides the
packet-level points that pin these curves to the real protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.throughput import (
    GBPS,
    dissent_v1_throughput,
    dissent_v2_throughput,
    rac_nogroup_throughput,
    rac_throughput,
)
from .runner import Table, format_rate, paper_sweep_sizes

__all__ = ["Figure3Result", "figure3"]


@dataclass
class Figure3Result:
    """The four series of Figure 3 (bits/s, indexed like ``sizes``)."""

    sizes: List[int]
    rac_nogroup: List[float]
    rac_grouped: List[float]
    dissent_v1: List[float]
    dissent_v2: List[float]
    group_size: int
    num_relays: int
    num_rings: int

    def render(self) -> str:
        table = Table(
            headers=["N", "RAC-NoGroup", f"RAC-{self.group_size}", "Dissent v1", "Dissent v2"],
            title=(
                "Figure 3 — throughput vs number of nodes "
                f"(L={self.num_relays}, R={self.num_rings}, G={self.group_size}, "
                "1 Gb/s links, 10 kB messages)"
            ),
        )
        for i, n in enumerate(self.sizes):
            table.add_row(
                n,
                format_rate(self.rac_nogroup[i]),
                format_rate(self.rac_grouped[i]),
                format_rate(self.dissent_v1[i]),
                format_rate(self.dissent_v2[i]),
            )
        return table.render()

    # -- the paper's headline ratios ---------------------------------------
    def ratio_at(self, n: int, series: str) -> float:
        """``series`` throughput at N=n relative to Dissent v2's."""
        index = self.sizes.index(n)
        chosen = {"rac_nogroup": self.rac_nogroup, "rac_grouped": self.rac_grouped}[series]
        return chosen[index] / self.dissent_v2[index]


def figure3(
    sizes: "Optional[List[int]]" = None,
    group_size: int = 1000,
    num_relays: int = 5,
    num_rings: int = 7,
    link_bps: float = GBPS,
) -> Figure3Result:
    """Regenerate Figure 3's data over the paper's sweep."""
    if sizes is None:
        sizes = paper_sweep_sizes()
    return Figure3Result(
        sizes=list(sizes),
        rac_nogroup=[rac_nogroup_throughput(n, link_bps, num_relays, num_rings) for n in sizes],
        rac_grouped=[rac_throughput(n, link_bps, group_size, num_relays, num_rings) for n in sizes],
        dissent_v1=[dissent_v1_throughput(n, link_bps) for n in sizes],
        dissent_v2=[dissent_v2_throughput(n, link_bps) for n in sizes],
        group_size=group_size,
        num_relays=num_relays,
        num_rings=num_rings,
    )
