"""Scenario runs shared between test modules.

A judged run is a pure function of its :class:`~repro.scenario.Scenario`
(of ``(params, seed)`` for a scored campaign cell), so the modules that
assert different things about the same cell — the characterisation pins
in ``tests/integration/test_scenario_equivalence.py`` and the unit tests
of each harness — run it once per session. Treat the outcomes as
read-only.
"""

import json
from typing import Any, Dict

from repro.campaign.scoring import run_campaign_cell
from repro.scenario import Outcome, Scenario, run_scenario

_OUTCOMES: "Dict[str, Outcome]" = {}


def run_cell(scenario: Scenario) -> Outcome:
    """``run_scenario(scenario)`` on the simulator, once per session."""
    key = scenario.fingerprint()
    if key not in _OUTCOMES:
        _OUTCOMES[key] = run_scenario(scenario)
    return _OUTCOMES[key]


def campaign_cell(params: "Dict[str, Any]", seed: int) -> Outcome:
    """``run_campaign_cell(params, seed)``, once per session."""
    key = json.dumps([params, seed], sort_keys=True)
    if key not in _OUTCOMES:
        _OUTCOMES[key] = run_campaign_cell(params, seed)
    return _OUTCOMES[key]
