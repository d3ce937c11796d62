"""The adversarial campaign matrix: strategies × faults × networks.

This package turns the repo's three adversity layers — planted
misbehaviour (:mod:`repro.freeride`), injected faults
(:mod:`repro.chaos`) and lossy networks — into one declarative
cross-product (:class:`CampaignSpec`), runs every cell through the
orchestrator pool as a ``campaign_point`` workload, scores each cell
with the fault-aware invariant checker plus the passive-opponent
analyses, and folds the result store into an **accountability
frontier**: per strategy, the fault intensity where detection stays
sound, where it first degrades (missed detections), where false
positives begin, and what the adversity costs anonymity.

Entry points: ``repro campaign run|report`` (CLI), the
``campaign_frontier`` and ``coalition_frontier`` rows of
:mod:`repro.experiments.artefacts` (the committed artefacts), and
``make campaign-smoke`` / ``coalition-smoke`` (CI).
"""

from .frontier import (
    DEFAULT_BLACKLIST_POLLUTION_THRESHOLD,
    CellAggregate,
    CoalitionAggregate,
    CoalitionFrontier,
    CoalitionReport,
    FrontierReport,
    StrategyFrontier,
    build_frontier,
)
from .runner import campaign_report, run_campaign
from .scoring import run_campaign_cell
from .spec import CAMPAIGN_EXPERIMENT, CANNED_CAMPAIGNS, CampaignSpec

__all__ = [
    "CAMPAIGN_EXPERIMENT",
    "CANNED_CAMPAIGNS",
    "DEFAULT_BLACKLIST_POLLUTION_THRESHOLD",
    "CampaignSpec",
    "CellAggregate",
    "CoalitionAggregate",
    "CoalitionFrontier",
    "CoalitionReport",
    "FrontierReport",
    "StrategyFrontier",
    "build_frontier",
    "campaign_report",
    "run_campaign",
    "run_campaign_cell",
]
