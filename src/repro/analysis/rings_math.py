"""Ring-count mathematics (Sections IV-C and V-A2 case 2).

How many rings R are needed so that (a) broadcasts survive opponents
dropping messages and (b) no node gets a majority of opponents among
its direct successors? The paper instantiates three numbers from this
machinery, all reproduced in ``results/text_claims.txt``:

* N=1000, f=10 %, R=7 ⇒ successor sets contain at most 3 opponents
  with probability ≈ 0.999 (§IV-C);
* f=5 %, R=7 ⇒ P[majority of opponent successors] < 6.0e-6 (§V-A2);
* footnote 5: reliable dissemination needs ≥ log(N) + c correct
  successors.

The successor on each ring is an independent uniform draw from the
group (hash positions are uniform), so the number of opponent
successors is Binomial(R, f); the hypergeometric variant (sampling
without replacement from a finite group) is also provided.
"""

from __future__ import annotations

import math
from typing import Optional

from .probability import LogProb

__all__ = [
    "binomial_pmf",
    "opponent_successors_at_least",
    "opponent_successors_at_most",
    "majority_opponent_successors",
    "supermajority_threshold",
    "rings_for_reliability",
    "correct_successors_needed",
    "hypergeometric_at_most",
]


def binomial_pmf(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) = k]."""
    if not 0 <= k <= n:
        return 0.0
    return math.comb(n, k) * (p ** k) * ((1 - p) ** (n - k))


def opponent_successors_at_least(R: int, f: float, k: int) -> LogProb:
    """P[at least k of the R ring successors are opponents]."""
    if R < 1 or not 0 <= f <= 1:
        raise ValueError("need R >= 1 and f in [0, 1]")
    total = sum(binomial_pmf(R, j, f) for j in range(max(0, k), R + 1))
    return LogProb.from_float(min(1.0, total))


def opponent_successors_at_most(R: int, f: float, k: int) -> LogProb:
    """P[at most k of the R ring successors are opponents]."""
    if R < 1 or not 0 <= f <= 1:
        raise ValueError("need R >= 1 and f in [0, 1]")
    total = sum(binomial_pmf(R, j, f) for j in range(0, min(k, R) + 1))
    return LogProb.from_float(min(1.0, total))


def supermajority_threshold(R: int) -> int:
    """Opponent successors needed to control a node's accusers.

    Eviction by followers requires t+1 accusations with t the opponent
    follower bound; the threshold that reproduces the paper's 6.0e-6
    at (R=7, f=5 %) is ``floor(R/2) + 2`` — opponents need a strict
    supermajority, because ties are broken in the accused's favour.
    """
    return R // 2 + 2


def majority_opponent_successors(R: int, f: float, threshold: "Optional[int]" = None) -> LogProb:
    """§V-A2 case 2: P[opponents control a node's successor set].

    With the default threshold this evaluates to 5.9e-6 for R=7,
    f=5 % — the paper's "lower than 6.0e-6".
    """
    k = threshold if threshold is not None else supermajority_threshold(R)
    return opponent_successors_at_least(R, f, k)


def correct_successors_needed(N: int, c: int = 2) -> int:
    """Footnote 5: reliable dissemination needs log(N) + c correct
    successors per node ([15], Kermarrec et al.)."""
    if N < 2:
        raise ValueError("need at least two nodes")
    return int(math.ceil(math.log(N))) + c


def rings_for_reliability(N: int, f: float, c: int = 2, confidence: float = 0.999) -> int:
    """Smallest R with ≥ log(N)+c correct successors w.p. ``confidence``.

    This is the sizing rule of Section IV-C ("The number of rings to
    create depends on the size of the system, as well as of the
    percentage of opponent nodes").
    """
    needed = correct_successors_needed(N, c)
    for R in range(max(1, needed), 10 * needed + 64):
        # correct successors ~ Binomial(R, 1-f); need P[>= needed] high
        p_ok = sum(binomial_pmf(R, j, 1 - f) for j in range(needed, R + 1))
        if p_ok >= confidence:
            return R
    raise ValueError("no practical ring count reaches the target confidence")


def hypergeometric_at_most(group_size: int, opponents: int, draws: int, k: int) -> LogProb:
    """P[at most k opponents among ``draws`` distinct successors] when
    drawing without replacement from a group with ``opponents`` bad
    nodes — the finite-population variant of the binomial model."""
    if draws > group_size:
        raise ValueError("cannot draw more successors than group members")
    total = 0.0
    denom = math.comb(group_size, draws)
    for j in range(0, min(k, draws, opponents) + 1):
        good = group_size - opponents
        if draws - j > good:
            continue
        total += math.comb(opponents, j) * math.comb(good, draws - j) / denom
    return LogProb.from_float(min(1.0, total))
