"""One campaign cell: plant a deviant, play a fault plan, judge it all.

``run_campaign_cell`` runs one cell of the ``campaign`` harness; the
``campaign`` sweep workload advances the same :class:`CampaignRun` in
checkpoint-interval chunks. Each cell is a seeded, deterministic
simulation that layers every adversary dimension the repo has:

* the **strategy** axis plants one misbehaving node — or, with
  ``coalition_fraction``, a coordinated set — by registry name
  (:mod:`repro.freeride.registry`);
* the **plan** axis compiles a canned chaos :class:`FaultPlan`
  (crash-restarts, partitions, loss windows, degradations) onto the
  simulator;
* the **loss** axis sets the baseline Bernoulli link-loss rate — the
  campaign's scalar fault *intensity*;
* a steady round-robin of anonymous traffic keeps every detection
  check and the liveness probe fed.

The verdict combines three judges:

* the fault-aware :class:`~repro.chaos.invariants.InvariantChecker`,
  extended to also convict the *absence* of conviction: a detectable
  planted misbehaver that survives past the detection bound flags the
  cell ``missed-detection``, while an honest node evicted while alive
  and reachable flags it ``safety-eviction`` (a false positive);
* the global passive opponent (:class:`~repro.analysis.observer
  .GlobalObserver`) taps every link and reports sender-attribution
  accuracy and posterior entropy — how much anonymity the cell's
  adversity actually costs;
* the intersection-attack model (:func:`~repro.analysis.intersection
  .rounds_to_deanonymize`) prices the eviction-driven deanonymization
  route at the cell's parameters.

The cell itself is an ordinary :class:`~repro.scenario.Scenario` of the
``campaign`` harness; the last two judges land in ``Outcome.scores``,
so everything reaches the result store and the frontier aggregator
through one flat ``Outcome.metrics()`` dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..analysis.intersection import rounds_to_deanonymize
from ..analysis.observer import GlobalObserver
from ..scenario import Outcome, Scenario, SimRun, prepare

__all__ = ["CampaignRun", "prepare_campaign_cell", "run_campaign_cell"]

#: How many (msg_id, true sender) samples feed the attribution attack.
ATTRIBUTION_SAMPLES = 24


def _sample_attribution(
    observer: GlobalObserver, sent_log: "List[int]", group_size: int
) -> "Tuple[float, float, float]":
    """(accuracy, chance, entropy_bits) of the sender-attribution attack.

    Samples pair observed message ids with the true senders of the
    driven flows, exactly like the anonymity-empirical harness; the
    observer's posterior is uniform over the sender's surviving group,
    so the entropy directly prices what evictions cost the anonymity
    set.
    """
    msg_ids = observer.observed_message_ids()
    n = min(len(msg_ids), len(sent_log), ATTRIBUTION_SAMPLES)
    chance = 1.0 / group_size if group_size else 1.0
    if n == 0:
        return chance, chance, math.log2(max(1, group_size))
    samples = [(msg_ids[i], sent_log[i]) for i in range(n)]
    accuracy = observer.sender_attribution_accuracy(samples)
    entropy = sum(observer.anonymity_entropy_bits(m, t) for m, t in samples) / n
    return accuracy, chance, entropy


@dataclass
class CampaignRun(SimRun):
    """A campaign cell's prepared run with the passive opponent tapped
    in before traffic starts; it snapshots whole, observer included, and
    its :meth:`outcome` carries the last two judges in ``scores``."""

    #: The cell's ``coalition_fraction`` parameter, recorded as a score.
    coalition_fraction: float = 0.0
    observer: GlobalObserver = field(init=False)

    def __post_init__(self) -> None:
        self.observer = GlobalObserver(self.system, rng_seed=self.scenario.seed + 1)
        self.observer.attach()

    def outcome(self) -> Outcome:
        """Judge the run so far and score it."""
        outcome = super().outcome()
        scenario, config = self.scenario, self.system.config
        surviving_group = scenario.nodes - len(outcome.evictions)
        accuracy, chance, entropy = _sample_attribution(self.observer, outcome.sent, surviving_group)
        resistance = rounds_to_deanonymize(
            max(2, surviving_group), config.num_rings, config.assumed_opponent_fraction
        )
        rounds = resistance.expected_attack_rounds
        if math.isinf(rounds):
            deanon_log10 = 300.0  # "never": beyond any astronomic budget
        elif rounds <= 1.0:
            deanon_log10 = 0.0
        else:
            deanon_log10 = min(300.0, math.log10(rounds))

        coalition = scenario.coalition
        outcome.scores = {
            "attribution_accuracy": accuracy,
            "chance_level": chance,
            "anonymity_entropy_bits": entropy,
            "deanon_rounds_log10": deanon_log10,
            "net_packets_dropped": float(outcome.counters.get("net_packets_dropped", 0)),
            "transport_retransmits": float(outcome.counters.get("transport_retransmits", 0)),
            "coalition_size": float(len(coalition["members"]) if coalition else 0),
            "coalition_fraction": self.coalition_fraction,
            # ``detected`` requires the whole coalition out; this counts how
            # many members actually fell.
            "coalition_evicted": float(outcome.deviants_evicted),
            # floor(f·G)+1 at this cell's config — the quorum the shuffle
            # tally needs, recorded so the frontier can compare the measured
            # onset against the analytic bound.
            "relay_threshold": float(config.relay_accusation_threshold(scenario.nodes)),
            "shuffle_rounds": float(outcome.counters.get("blacklist_rounds", 0)),
        }
        return outcome


def prepare_campaign_cell(scenario: Scenario, params: "Dict[str, Any]") -> CampaignRun:
    """``scenario`` (a ``campaign`` cell of ``params``) at t=0, tapped."""
    return CampaignRun(
        **vars(prepare(scenario)),
        coalition_fraction=float(params.get("coalition_fraction", 0.0)),
    )


def run_campaign_cell(params: "Dict[str, Any]", seed: int) -> Outcome:
    """Run and score one strategies × faults × networks cell."""
    run = prepare_campaign_cell(Scenario.from_params(params, seed, "campaign"), params)
    try:
        run.run_to(run.scenario.horizon)
        return run.outcome()
    finally:
        run.close()
