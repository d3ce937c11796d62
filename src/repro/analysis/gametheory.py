"""Game-theoretic freerider analysis (Section V-B).

The paper models a node's benefit as ``B = αA + βT + γR + δF + ωC + φD``
with ``α ≈ β ≈ γ ≫ δ ≈ ω ≈ φ``: anonymity (A), transmission of own
messages (T) and reception (R) vastly outweigh the resources saved by
forwarding (F), ciphering (C) or deciphering (D) less. Freeriders do
not collude, expect opponents to hurt them, and expect everyone else to
follow the protocol — the classic Nash setting.

This module turns each lemma of the Nash proof into a quantitative
deviation check: for every unilateral deviation we compute

* the per-round resource gain (weighted by the small δ/ω/φ),
* the per-round detection probability implied by the protocol's checks
  (from :mod:`repro.analysis.rings_math` and the eviction thresholds),
* the expected cumulative utility over a horizon, where eviction ends
  all benefit (an evicted node neither sends nor receives — and loses
  its anonymity set entirely).

The protocol *is* a Nash equilibrium iff no deviation beats honesty.
``results/nash_analysis.txt`` holds the resulting table, and the
simulator-level tests confirm the detection probabilities are not
wishful: deviators really do get evicted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .rings_math import binomial_pmf

__all__ = ["UtilityWeights", "Deviation", "DeviationOutcome", "NashAnalysis"]


@dataclass(frozen=True)
class UtilityWeights:
    """The paper's α, β, γ (large) and δ, ω, φ (small) weights."""

    alpha: float = 1.0  # anonymity
    beta: float = 1.0  # own messages transmitted
    gamma: float = 1.0  # messages received
    delta: float = 0.01  # forwarding work saved
    omega: float = 0.01  # ciphering work saved
    phi: float = 0.01  # deciphering work saved

    def __post_init__(self) -> None:
        small = max(self.delta, self.omega, self.phi)
        large = min(self.alpha, self.beta, self.gamma)
        if small >= large:
            raise ValueError(
                "the paper's model requires alpha ~ beta ~ gamma >> delta ~ omega ~ phi"
            )

    def honest_round_utility(self) -> float:
        """A compliant, unevicted node enjoys full A, T and R."""
        return self.alpha + self.beta + self.gamma


@dataclass(frozen=True)
class Deviation:
    """One unilateral strategy: what it saves and how it gets caught."""

    name: str
    lemma: int
    #: Fractions of the respective work avoided, in [0, 1].
    forwarding_saved: float = 0.0
    ciphering_saved: float = 0.0
    deciphering_saved: float = 0.0
    #: Per-round probability the deviation completes the eviction
    #: evidence against the deviator.
    detection_probability: float = 0.0
    #: Direct per-round utility damage even without eviction (lost
    #: anonymity growth, exposure to attacks, undelivered messages).
    self_inflicted_loss: float = 0.0
    rationale: str = ""


@dataclass
class DeviationOutcome:
    """Comparison of one deviation against compliance."""

    deviation: Deviation
    honest_utility: float
    deviant_utility: float
    expected_rounds_until_eviction: float

    @property
    def gain(self) -> float:
        return self.deviant_utility - self.honest_utility

    @property
    def deviation_is_rational(self) -> bool:
        return self.gain > 0


class NashAnalysis:
    """Instantiates Lemmas 1-7 for a concrete RAC configuration."""

    def __init__(
        self,
        num_rings: int = 7,
        num_relays: int = 5,
        group_size: int = 1000,
        opponent_fraction: float = 0.1,
        idle_fraction: float = 0.3,
        relayed_onions_per_round: float = 1.0,
        weights: "UtilityWeights | None" = None,
        horizon_rounds: int = 10_000,
    ) -> None:
        if not 0 <= opponent_fraction < 0.5:
            raise ValueError("the analysis assumes a minority of opponents")
        if not 0 <= idle_fraction <= 1:
            raise ValueError("idle fraction must be in [0, 1]")
        self.R = num_rings
        self.L = num_relays
        self.G = group_size
        self.f = opponent_fraction
        # The paper's behavioural assumption: "freeriders expect
        # opponent nodes to try to decrease their benefit as much as
        # possible" — so the *expected* losses from dropping the checks
        # (Lemmas 3 and 7) are priced against a non-trivial threat even
        # when the actual opponent share happens to be zero.
        self.threat = max(opponent_fraction, 0.05)
        self.idle_fraction = idle_fraction
        self.relayed_onions_per_round = relayed_onions_per_round
        self.weights = weights if weights is not None else UtilityWeights()
        self.horizon = horizon_rounds

    # -- detection machinery ---------------------------------------------------
    def follower_threshold(self) -> int:
        """t+1 with t = ceil(f·R): accusations needed from followers."""
        t = min(self.R - 1, math.ceil(self.f * self.R))
        return t + 1

    def follower_detection_probability(self) -> float:
        """P[enough correct followers to evict a detected deviator].

        Every *correct* successor accuses deterministically (the checks
        are mechanical), so detection only fails if fewer than t+1 of
        the R successors are correct.
        """
        needed = self.follower_threshold()
        return sum(binomial_pmf(self.R, j, 1 - self.f) for j in range(needed, self.R + 1))

    def relay_eviction_rate(self) -> float:
        """Per-round probability of completing relay-blacklist evidence.

        A silent relay burns one *correct* sender per dropped onion
        (probability 1−f each); eviction needs f·G+1 distinct
        accusers, so the expected time is (f·G+1)/((1−f)·λ) rounds
        with λ onions relayed per round.
        """
        accusers_needed = math.floor(self.f * self.G) + 1
        accumulation = (1 - self.f) * self.relayed_onions_per_round
        if accumulation <= 0:
            return 0.0
        return min(1.0, accumulation / accusers_needed)

    # -- the deviation catalogue ------------------------------------------------
    def deviations(self) -> "List[Deviation]":
        w = self.weights
        follower_p = self.follower_detection_probability()
        return [
            Deviation(
                name="drop-forwarding",
                lemma=1,
                forwarding_saved=1.0,
                detection_probability=follower_p,
                rationale=(
                    "Every correct ring successor misses its copy within the "
                    "bounded delay and accuses (check 2)."
                ),
            ),
            Deviation(
                name="silent-relay",
                lemma=2,
                forwarding_saved=self.relayed_onions_per_round / max(1.0, self.G),
                ciphering_saved=0.1,
                detection_probability=self.relay_eviction_rate(),
                rationale=(
                    "Each onion's sender watches the layer ids it built; one "
                    "correct suspicious sender per drop, f*G+1 evict (check 1)."
                ),
            ),
            Deviation(
                name="skip-checks",
                lemma=3,
                deciphering_saved=0.5,
                detection_probability=0.0,
                self_inflicted_loss=w.alpha * self.threat + w.gamma * self.threat,
                rationale=(
                    "Undetectable, but an unwatched predecessor can replay "
                    "(marking traffic, losing anonymity) or starve the node "
                    "(N-1 attack) — expected loss scales with f."
                ),
            ),
            Deviation(
                name="lie-in-shuffle",
                lemma=4,
                detection_probability=0.0,
                self_inflicted_loss=w.beta * self.threat * 0.1,
                rationale=(
                    "Shuffle messages are fixed-length, so lying saves zero "
                    "bytes; withholding true suspicions keeps bad relays in "
                    "the node's own future paths."
                ),
            ),
            Deviation(
                name="drop-join-requests",
                lemma=5,
                forwarding_saved=1.0 / max(1, self.G),
                detection_probability=0.0,
                self_inflicted_loss=w.alpha / max(1, self.G),
                rationale=(
                    "Saves one broadcast per join but shrinks the node's own "
                    "anonymity set and cedes admission control to opponents."
                ),
            ),
            Deviation(
                name="skip-noise",
                lemma=6,
                forwarding_saved=self.idle_fraction,
                ciphering_saved=self.idle_fraction,
                detection_probability=self.idle_fraction * follower_p,
                rationale=(
                    "In idle windows the successors receive nothing and run "
                    "the rate-low check (check 3)."
                ),
            ),
            Deviation(
                name="skip-rate-watch",
                lemma=7,
                deciphering_saved=0.1,
                detection_probability=0.0,
                self_inflicted_loss=w.gamma * self.threat * 0.5,
                rationale=(
                    "Undetectable, but a flooding opponent then wastes the "
                    "node's bandwidth and an under-sender hides an attack."
                ),
            ),
        ]

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, deviation: Deviation) -> DeviationOutcome:
        """Expected cumulative utility: honest vs deviant.

        While undetected, the deviator keeps full A/T/R plus the saved
        resources minus self-inflicted losses; each round it survives
        with probability (1 − p). Eviction zeroes utility forever.
        """
        w = self.weights
        u_honest_round = w.honest_round_utility()
        u_dev_round = (
            u_honest_round
            + w.delta * deviation.forwarding_saved
            + w.omega * deviation.ciphering_saved
            + w.phi * deviation.deciphering_saved
            - deviation.self_inflicted_loss
        )
        p = deviation.detection_probability
        H = self.horizon
        if p <= 0:
            deviant_total = u_dev_round * H
            expected_rounds = float("inf")
        else:
            survive = 1 - p
            # sum_{t=0}^{H-1} survive^t  (utility accrues while alive)
            geometric = (1 - survive**H) / (1 - survive)
            deviant_total = u_dev_round * geometric
            expected_rounds = 1 / p
        return DeviationOutcome(
            deviation=deviation,
            honest_utility=u_honest_round * H,
            deviant_utility=deviant_total,
            expected_rounds_until_eviction=expected_rounds,
        )

    def evaluate_all(self) -> "List[DeviationOutcome]":
        return [self.evaluate(d) for d in self.deviations()]

    def is_nash_equilibrium(self) -> bool:
        """Theorem 1: no unilateral deviation is rational."""
        return all(not outcome.deviation_is_rational for outcome in self.evaluate_all())
