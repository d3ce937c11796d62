"""Closed-form analysis of RAC and its baselines.

* :mod:`repro.analysis.probability` — log-space probabilities (Table I
  spans 1000 orders of magnitude);
* :mod:`repro.analysis.anonymity` — Section V-A formulas;
* :mod:`repro.analysis.rings_math` — ring sizing and successor-set
  opponent probabilities;
* :mod:`repro.analysis.costs` — the ``x * Bcast(y)`` cost notation;
* :mod:`repro.analysis.throughput` — saturation-throughput curves for
  Figures 1 and 3;
* :mod:`repro.analysis.capacity` — groups × members → anonymous msg/s
  at an anonymity degree (the ``pubsub_capacity`` table);
* :mod:`repro.analysis.gametheory` — the Nash-equilibrium deviation
  analysis of Section V-B.
"""

from .anonymity import (
    active_sender_break_grouped,
    anonymity_set_size,
    dissent_break,
    onion_routing_break,
    opponents_in_group,
    path_all_opponents,
    receiver_break_grouped,
    receiver_break_nogroup,
    sender_break_grouped,
    sender_break_nogroup,
    unlinkability_break_grouped,
    unlinkability_break_nogroup,
)
from .costs import (
    CostModel,
    dissent_v1_cost,
    dissent_v2_cost,
    onion_routing_cost,
    optimal_server_count,
    rac_cost,
    rac_nogroup_cost,
)
from .gametheory import Deviation, DeviationOutcome, NashAnalysis, UtilityWeights
from .intersection import (
    IntersectionResistance,
    candidate_set_after_rounds,
    forced_eviction_probability,
    rounds_to_deanonymize,
)
from .metrics import (
    SybilCost,
    degree_of_anonymity,
    shannon_entropy_bits,
    sybil_placement_cost,
    uniform_degree,
)
from .observer import AttributionResult, GlobalObserver, PacketLogEntry
from .probability import ONE, ZERO, LogProb
from .queueing import LatencyModel, predicted_latency
from .rings_math import (
    binomial_pmf,
    correct_successors_needed,
    hypergeometric_at_most,
    majority_opponent_successors,
    opponent_successors_at_least,
    opponent_successors_at_most,
    rings_for_reliability,
    supermajority_threshold,
)
from .throughput import (
    PROTOCOLS,
    ThroughputModel,
    dissent_v1_throughput,
    dissent_v2_throughput,
    onion_routing_throughput,
    rac_nogroup_throughput,
    rac_throughput,
    sweep,
)

__all__ = [
    "active_sender_break_grouped",
    "anonymity_set_size",
    "dissent_break",
    "onion_routing_break",
    "opponents_in_group",
    "path_all_opponents",
    "receiver_break_grouped",
    "receiver_break_nogroup",
    "sender_break_grouped",
    "sender_break_nogroup",
    "unlinkability_break_grouped",
    "unlinkability_break_nogroup",
    "CostModel",
    "dissent_v1_cost",
    "dissent_v2_cost",
    "onion_routing_cost",
    "optimal_server_count",
    "rac_cost",
    "rac_nogroup_cost",
    "Deviation",
    "IntersectionResistance",
    "candidate_set_after_rounds",
    "forced_eviction_probability",
    "rounds_to_deanonymize",
    "AttributionResult",
    "SybilCost",
    "degree_of_anonymity",
    "shannon_entropy_bits",
    "sybil_placement_cost",
    "uniform_degree",
    "GlobalObserver",
    "PacketLogEntry",
    "DeviationOutcome",
    "NashAnalysis",
    "UtilityWeights",
    "ONE",
    "ZERO",
    "LogProb",
    "LatencyModel",
    "predicted_latency",
    "binomial_pmf",
    "correct_successors_needed",
    "hypergeometric_at_most",
    "majority_opponent_successors",
    "opponent_successors_at_least",
    "opponent_successors_at_most",
    "rings_for_reliability",
    "supermajority_threshold",
    "PROTOCOLS",
    "ThroughputModel",
    "dissent_v1_throughput",
    "dissent_v2_throughput",
    "onion_routing_throughput",
    "rac_nogroup_throughput",
    "rac_throughput",
    "sweep",
]
