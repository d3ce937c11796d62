"""Closed-form anonymity guarantees (Section V-A and Table I).

All probabilities concern the *global and active opponent* controlling
a fraction ``f`` of the ``N`` nodes, and are returned as
:class:`repro.analysis.probability.LogProb` because Table I spans 1000
orders of magnitude.

Formula provenance (each function quotes its paper location):

* RAC sender anonymity (grouped): §V-A1a —
  ``max_X  Π_{i=0}^{L} (X−i)/(G−i−1) · Π_{i=0}^{X−1} (fN−i)/(N−i)``.
  The in-text value 5.7e-25 for (N=1e5, G=1000, f=5 %, L=5) matches the
  same expression with ``X+1`` factors in the second product; Table I's
  7.3e-22 at f=10 % matches the formula as written. Both variants are
  implemented (``variant="as_written" | "quoted"``); see DESIGN.md §2.
* RAC sender anonymity (no groups): the opponent's fN nodes are all in
  the single group, so the probability a random L+1-relay path (the L
  relays plus, in the paper's counting, the exposed first hop) is
  all-opponent is ``Π_{i=0}^{L} (fN−i)/(N−i)`` — 9.9e-7 at f=10 %,
  L=5, which is also the paper's onion-routing row.
* RAC receiver anonymity (grouped): §V-A1b — the opponent must control
  all of the destination group but one: ``Π_{i=0}^{G−2} (fN−i)/(N−i)``.
* Dissent v1/v2: anonymity broken only by controlling *all* nodes
  (v1) or all trusted servers (v2, assumed honest) → probability 0 for
  f < 1 (Table I).
* Active attacks: §V-A2 case 1 — opponents dropping relayed onions
  burn themselves with the sender, so they force at most one fresh
  path per opponent in the victim's group: ``≤ fG × (passive sender
  break)`` (2.8e-23 = 50 × 5.7e-25 for the paper's parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .probability import ONE, ZERO, LogProb

__all__ = [
    "path_all_opponents",
    "opponents_in_group",
    "sender_break_nogroup",
    "sender_break_grouped",
    "receiver_break_grouped",
    "receiver_break_nogroup",
    "unlinkability_break_grouped",
    "unlinkability_break_nogroup",
    "onion_routing_break",
    "dissent_break",
    "active_sender_break_grouped",
    "anonymity_set_size",
]


def _check_params(N: int, f: float) -> None:
    if N < 2:
        raise ValueError("the system needs at least two nodes")
    if not 0 <= f <= 1:
        raise ValueError("the opponent fraction must be in [0, 1]")


def path_all_opponents(X: int, G: int, L: int) -> LogProb:
    """P[a random relay path is all-opponent | X opponents in the group].

    The paper's first factor: ``Π_{i=0}^{L} (X−i)/(G−i−1)`` — L+1
    draws without replacement from the G−1 candidate relays.
    """
    if X < 0 or G < 2 or L < 1:
        raise ValueError("need X >= 0, G >= 2, L >= 1")
    if G < L + 2:
        raise ValueError("group too small for the path length")
    if X < L + 1:
        return ZERO

    def factors() -> Iterator[float]:
        for i in range(L + 1):
            denom = G - i - 1
            if denom <= 0:
                raise ValueError("group too small for the path length")
            yield min(1.0, (X - i) / denom)

    return LogProb.product(factors())


def opponents_in_group(X: int, N: int, f: float) -> LogProb:
    """P[the opponent places X of its fN nodes in one given group].

    The paper's second factor: ``Π_{i=0}^{X−1} (fN−i)/(N−i)`` — group
    membership is puzzle-random, so landing X specific corrupt nodes in
    the victim's group is drawing X times without replacement.
    """
    _check_params(N, f)
    opponents = f * N
    if X > opponents:
        return ZERO
    return LogProb.product((opponents - i) / (N - i) for i in range(X))


def sender_break_nogroup(N: int, f: float, L: int) -> LogProb:
    """Sender-anonymity break for RAC-NoGroup (and onion routing).

    All fN opponent nodes share the single group, so only the path
    draw matters: ``Π_{i=0}^{L} (fN−i)/(N−i)``.
    """
    _check_params(N, f)
    opponents = f * N
    if opponents < L + 1:
        return ZERO
    return LogProb.product(min(1.0, (opponents - i) / (N - i)) for i in range(L + 1))


def sender_break_grouped(N: int, G: int, f: float, L: int, variant: str = "as_written") -> LogProb:
    """Sender-anonymity break for grouped RAC (§V-A1a).

    Maximizes over the number X of opponent nodes in the victim's
    group. ``variant="quoted"`` adds the extra group-placement factor
    that reproduces the paper's in-text 5.7e-25 (see module docstring).
    """
    _check_params(N, f)
    if G < L + 2:
        raise ValueError("group too small for the path length")
    max_x = min(G, int(f * N))
    if variant not in ("as_written", "quoted"):
        raise ValueError(f"unknown variant {variant!r}")
    best = ZERO
    for X in range(L + 1, max_x + 1):
        placement_terms = X + 1 if variant == "quoted" else X
        candidate = path_all_opponents(X, G, L) * opponents_in_group(placement_terms, N, f)
        if candidate > best:
            best = candidate
        elif X > L + 16 and candidate < best * LogProb.from_float(1e-6):
            break  # product decays geometrically past the maximum
    return best


def receiver_break_grouped(N: int, G: int, f: float) -> LogProb:
    """Receiver-anonymity break for grouped RAC (§V-A1b).

    Optimal within the group: the opponent must control all G nodes of
    the destination group except the destination itself.
    """
    _check_params(N, f)
    return opponents_in_group(G - 1, N, f)


def receiver_break_nogroup(N: int, f: float) -> LogProb:
    """Receiver break with a single group: control all N−1 other nodes.

    Zero whenever f < 1 − 1/N (Table I shows 0 in every RAC-NoGroup
    receiver cell).
    """
    _check_params(N, f)
    if f * N < N - 1:
        return ZERO
    return ONE


def unlinkability_break_grouped(N: int, G: int, f: float) -> LogProb:
    """§V-A1c: unlinkability follows receiver anonymity."""
    return receiver_break_grouped(N, G, f)


def unlinkability_break_nogroup(N: int, f: float) -> LogProb:
    return receiver_break_nogroup(N, f)


def onion_routing_break(N: int, f: float, L: int) -> LogProb:
    """Onion routing, all three properties (Table I uses one value).

    The paper's table reports the identical probability for sender,
    receiver and unlinkability: the L+1-draw all-opponent path.
    """
    return sender_break_nogroup(N, f, L)


def dissent_break(f: float) -> LogProb:
    """Dissent v1/v2: break requires all nodes (resp. all trusted
    servers) — probability 0 for any f < 1."""
    if not 0 <= f <= 1:
        raise ValueError("the opponent fraction must be in [0, 1]")
    return ONE if f >= 1.0 else ZERO


def active_sender_break_grouped(
    N: int, G: int, f: float, L: int, variant: str = "as_written"
) -> LogProb:
    """§V-A2 case 1: opponents force path rebuilds by dropping onions.

    Each opponent node in the victim's group can force at most one
    rebuild before the sender blacklists it, so the attack multiplies
    the passive probability by at most fG.
    """
    passive = sender_break_grouped(N, G, f, L, variant=variant)
    forced_paths = max(1, int(f * G))
    return passive * forced_paths


def anonymity_set_size(N: int, G: "int | None") -> int:
    """Table I first row: the sender/receiver is one among this many."""
    if G is None:
        return N
    return min(N, G)
