"""Analytic saturation-throughput model (drives Figures 1 and 3).

The paper's experiment (Sections III and VI-C): N nodes on 1 Gb/s
links behind an ideal router, every node sending fixed-size anonymous
messages to one random destination *"at the highest possible throughput
it can sustain"*; the metric is *"the average throughput at which nodes
receive anonymous messages"*.

On that ideal network the unique bottleneck is a node's own link. If
delivering one anonymous message requires the bottleneck participant to
transmit ``k`` message-copies, and ``m`` concurrent senders share that
participant, the sustainable per-flow goodput is ``C / (k · m)``.
DESIGN.md §2 derives ``k·m`` per protocol:

================  =======================  ==========================
protocol          bottleneck               per-flow goodput
================  =======================  ==========================
onion routing     any relay                ``C / L``
Dissent v1        any node                 ``C / N²``
Dissent v2        a trusted server         ``C / (N · (S + N/S))``
RAC (group G)     any group member         ``C / ((L+1) · R · G)``
RAC (no groups)   any node                 ``C / ((L+1) · R · N)``
================  =======================  ==========================

Absolute values depend on constants the paper does not report (framing,
scheduling); the *shape* — who wins, the 1/N² vs 1/N^{3/2} vs constant
decay, the crossovers — is what the reproduction targets, and the
packet-level simulator cross-validates these formulas at simulable
sizes (``tests/integration/test_throughput_validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from .costs import optimal_server_count

__all__ = [
    "ThroughputModel",
    "onion_routing_throughput",
    "dissent_v1_throughput",
    "dissent_v2_throughput",
    "rac_throughput",
    "rac_nogroup_throughput",
    "PROTOCOLS",
    "sweep",
]

GBPS = 1_000_000_000.0


def onion_routing_throughput(N: int, link_bps: float = GBPS, L: int = 5) -> float:
    """Per-flow goodput of plain onion routing: C / L (200 Mb/s at L=5)."""
    _check(N, link_bps)
    return link_bps / L


def dissent_v1_throughput(N: int, link_bps: float = GBPS) -> float:
    """Dissent v1: cost N*Bcast(N) ⇒ every node transmits N copies per
    anonymous message and serves N concurrent senders: C / N²."""
    _check(N, link_bps)
    return link_bps / (N * N)


def dissent_v2_throughput(N: int, link_bps: float = GBPS, servers: "int | None" = None) -> float:
    """Dissent v2: the trusted server is the bottleneck.

    Each server relays for N/S clients and participates in the S-server
    exchange; per anonymous message it transmits S + N/S copies and all
    N flows cross the server tier: C / (N · (S + N/S)), minimized by
    the optimal S ≈ √N the paper grants the protocol.
    """
    _check(N, link_bps)
    S = servers if servers is not None else optimal_server_count(N)
    return link_bps / (N * (S + N / S))


def rac_throughput(
    N: int, link_bps: float = GBPS, G: int = 1000, L: int = 5, R: int = 7
) -> float:
    """Grouped RAC: C / ((L+1) · R · min(N, G)) — constant once N > G.

    Within a group every member transmits R ring-copies of each of the
    (L+1) broadcasts of each of the G concurrent group flows.
    """
    _check(N, link_bps)
    effective_group = min(N, G)
    return link_bps / ((L + 1) * R * effective_group)


def rac_nogroup_throughput(N: int, link_bps: float = GBPS, L: int = 5, R: int = 7) -> float:
    """RAC with one system-wide group: C / ((L+1) · R · N)."""
    return rac_throughput(N, link_bps, G=N, L=L, R=R)


@dataclass(frozen=True)
class ThroughputModel:
    """A named per-flow goodput curve T(N)."""

    name: str
    fn: Callable[[int], float]

    def __call__(self, N: int) -> float:
        return self.fn(N)


def PROTOCOLS(link_bps: float = GBPS, G: int = 1000, L: int = 5, R: int = 7) -> "List[ThroughputModel]":
    """The four curves of Figure 3 (plus onion routing as an anchor)."""
    return [
        ThroughputModel("RAC-NoGroup", lambda n: rac_nogroup_throughput(n, link_bps, L, R)),
        ThroughputModel(f"RAC-{G}", lambda n: rac_throughput(n, link_bps, G, L, R)),
        ThroughputModel("Dissent v1", lambda n: dissent_v1_throughput(n, link_bps)),
        ThroughputModel("Dissent v2", lambda n: dissent_v2_throughput(n, link_bps)),
        ThroughputModel("Onion routing", lambda n: onion_routing_throughput(n, link_bps, L)),
    ]


def sweep(models: "Iterable[ThroughputModel]", sizes: "Iterable[int]") -> "Dict[str, List[float]]":
    """Evaluate each model over the node-count sweep (bits/s)."""
    sizes = list(sizes)
    return {model.name: [model(n) for n in sizes] for model in models}


def _check(N: int, link_bps: float) -> None:
    if N < 2:
        raise ValueError("the system needs at least two nodes")
    if link_bps <= 0:
        raise ValueError("link bandwidth must be positive")
