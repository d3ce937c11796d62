"""Every in-text numeric claim of the paper, reproduced in one place.

Each claim is a :class:`Claim` with the paper's quoted value, our
computed value and a tolerance expressed in relative terms (or in
orders of magnitude for log-space quantities). The bench prints the
full scoreboard; ``tests/unit/test_text_claims.py`` asserts each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..analysis.anonymity import (
    active_sender_break_grouped,
    sender_break_grouped,
    sender_break_nogroup,
)
from ..analysis.probability import LogProb
from ..analysis.rings_math import (
    majority_opponent_successors,
    opponent_successors_at_most,
)
from ..analysis.throughput import (
    GBPS,
    dissent_v2_throughput,
    onion_routing_throughput,
    rac_nogroup_throughput,
    rac_throughput,
)
from .runner import Table

__all__ = ["Claim", "all_claims", "render_claims"]


@dataclass
class Claim:
    """One paper claim and its reproduction."""

    section: str
    statement: str
    paper_value: float
    computed_value: float
    #: Acceptable |log10(computed/paper)|; 0.31 ≈ a factor of 2.
    log10_tolerance: float = 0.31

    @property
    def log10_error(self) -> float:
        if self.paper_value == 0 or self.computed_value == 0:
            return 0.0 if self.paper_value == self.computed_value else float("inf")
        return abs(math.log10(self.computed_value / self.paper_value))

    @property
    def holds(self) -> bool:
        return self.log10_error <= self.log10_tolerance


def _log(p: LogProb) -> float:
    return p.value if not p.is_zero() else 0.0


def all_claims() -> "List[Claim]":
    """The scoreboard of in-text numbers (Table I has its own module)."""
    N, G, L, R = 100_000, 1000, 5, 7
    claims = [
        Claim(
            "IV-A",
            "L=5, R=7: opponent breaks sender anonymity w.p. 9.9e-7 (f=10%)",
            9.9e-7,
            _log(sender_break_nogroup(N, 0.10, L)),
        ),
        Claim(
            "V-A1",
            "N=100k, G=1000, f=5%, L=5: passive sender break = 5.7e-25 "
            "(paper's quoted variant; the formula as written gives 1.1e-23)",
            5.7e-25,
            _log(sender_break_grouped(N, G, 0.05, L, variant="quoted")),
        ),
        Claim(
            "V-A2 case 1",
            "same parameters, active opponents: sender break <= 2.8e-23",
            2.8e-23,
            _log(active_sender_break_grouped(N, G, 0.05, L, variant="quoted")),
        ),
        Claim(
            "V-A2 case 2",
            "f=5%, R=7: P[majority of opponent successors] < 6.0e-6",
            6.0e-6,
            _log(majority_opponent_successors(R, 0.05)),
        ),
        Claim(
            "IV-C",
            "N=1000, f=10%, R=7: successor sets hold <=3 opponents w.p. 0.999",
            0.999,
            _log(opponent_successors_at_most(R, 0.10, 3)),
            log10_tolerance=0.01,
        ),
        Claim(
            "VI-C",
            "onion routing with path length 5 sustains 200 Mb/s",
            200e6,
            onion_routing_throughput(N, GBPS, L),
            log10_tolerance=0.01,
        ),
        Claim(
            "VI-C",
            "at N=100k, RAC-NoGroup is ~15x Dissent v2",
            15.0,
            rac_nogroup_throughput(N, GBPS, L, R) / dissent_v2_throughput(N, GBPS),
        ),
        Claim(
            "VI-C",
            "at N=100k, RAC-1000 is ~1300x Dissent v2",
            1300.0,
            rac_throughput(N, GBPS, G, L, R) / dissent_v2_throughput(N, GBPS),
        ),
        Claim(
            "VI-C",
            "RAC-1000 and RAC-NoGroup coincide for N < 1000 (ratio 1 at N=500)",
            1.0,
            rac_throughput(500, GBPS, G, L, R) / rac_nogroup_throughput(500, GBPS, L, R),
            log10_tolerance=0.01,
        ),
        Claim(
            "VI-C (scaling)",
            "RAC-1000 throughput is constant in N: T(100k) / T(2k) = 1",
            1.0,
            rac_throughput(100_000, GBPS, G, L, R) / rac_throughput(2000, GBPS, G, L, R),
            log10_tolerance=0.01,
        ),
    ]
    return claims


def render_claims() -> str:
    table = Table(
        headers=["Section", "Claim", "Paper", "Computed", "log10 err", "OK"],
        title="In-text numeric claims",
    )
    for claim in all_claims():
        table.add_row(
            claim.section,
            claim.statement[:68],
            f"{claim.paper_value:.3g}",
            f"{claim.computed_value:.3g}",
            f"{claim.log10_error:.2f}",
            "yes" if claim.holds else "NO",
        )
    return table.render()
