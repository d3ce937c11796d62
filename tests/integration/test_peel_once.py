"""A node trial-peels each broadcast once per domain kind.

RAC's receive rule (Section IV-C) has a node try its ID key, then its
pseudonym key, on a broadcast it sees for the first time; later copies
only count towards check 2. ``RacNode`` peels behind the receipt that
says "first sight in this domain", so it keeps no memo of the trials
that came back opaque. These runs hold it to that: across a flood, a
run whose traffic crosses groups over channels, the churning
``membership`` plan and a storm campaign cell, no (node, domain kind,
message id) reaches ``peel`` twice.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.campaign.scoring import run_campaign_cell
from repro.core import node as node_module
from repro.core.onion import unwrap_wire
from repro.crypto.hashes import message_id
from repro.scenario import Scenario, run_scenario

RUNS = {
    "flood": lambda: run_scenario(Scenario(nodes=16, horizon=2.0, traffic="ring", messages=2)),
    "channels": lambda: run_scenario(
        Scenario(
            nodes=12,
            horizon=3.0,
            config={"group_min": 2, "group_max": 4},
            traffic="ring",
            messages=2,
        )
    ),
    "membership": lambda: run_scenario(
        Scenario.from_params({"plan": "membership", "nodes": 6, "horizon": 12.0}, 0, "chaos")
    ),
    "storm": lambda: run_campaign_cell(
        {"strategy": "silent-relay", "plan": "storm", "nodes": 10, "horizon": 12.0}, 0
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_no_message_is_trial_peeled_twice(name, monkeypatch):
    real_peel = node_module.peel
    trials = Counter()

    def peel(wire, id_keypair, pseudonym_keypair, *args, **kwargs):
        kind = "channel" if id_keypair is None else "group"
        trials[pseudonym_keypair, kind, message_id(unwrap_wire(wire))] += 1
        return real_peel(wire, id_keypair, pseudonym_keypair, *args, **kwargs)

    monkeypatch.setattr(node_module, "peel", peel)
    outcome = RUNS[name]()
    assert outcome.deliveries
    if name == "channels":
        assert any(kind == "channel" for _node, kind, _msg in trials)
    assert trials
    assert [key for key, count in trials.items() if count > 1] == []
