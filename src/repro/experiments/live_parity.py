"""Sim/live parity (results/live_parity.txt): one scenario, two
substrates, one table.

The canonical 8-node scenario (each node sends 2 anonymous messages to
its creation-order successor) on the packet simulator and over real
localhost TCP: did both deliver the same payload multiset with zero
accusations and evictions? The live half spends ~8 wall-clock seconds;
the file is still pinned because parity is judged on delivery *sets*,
never timing.
"""

from __future__ import annotations

from typing import List, Tuple

from ..scenario import Scenario, ring_sends, run_scenario
from .runner import Table

__all__ = ["PARITY_SCENARIO", "artefact"]

#: The ``wall`` timer regime stretches timers so wall-clock scheduling
#: jitter cannot fake a misbehaviour, and turns the blacklist shuffle
#: off on the simulator too (the live runtime does not host it).
PARITY_SCENARIO = Scenario(
    nodes=8, horizon=8.0, seed=0, regime="wall", traffic="ring", messages=2, tag="live"
)


def artefact() -> "Tuple[List[str], List[str]]":
    scenario = PARITY_SCENARIO
    sim = run_scenario(scenario, "sim")
    live = run_scenario(scenario, "live")
    expected = sorted(
        payload
        for _s, _d, payload in ring_sends(
            scenario.nodes, scenario.messages, scenario.tag, scenario.seed
        )
    )

    table = Table(
        headers=["substrate", "delivered", "expected", "accusations", "evictions", "complete"],
        title=(
            f"sim/live parity: {scenario.nodes} nodes, {scenario.messages} msg/node, "
            f"{scenario.horizon:.0f}s, seed {scenario.seed}"
        ),
    )
    for outcome in (sim, live):
        table.add_row(
            outcome.substrate,
            len(outcome.deliveries),
            len(expected),
            outcome.accusations,
            len(outcome.evictions),
            "yes" if outcome.delivered_multiset() == expected else "NO",
        )

    multisets_equal = sim.delivered_multiset() == live.delivered_multiset()
    clean = not (sim.accusations or live.accusations or sim.evictions or live.evictions)
    holds = multisets_equal and clean and sim.delivered_multiset() == expected
    lines = [
        table.render(),
        "",
        f"delivered multisets equal : {'yes' if multisets_equal else 'NO'}",
        f"zero accusations/evictions: {'yes' if clean else 'NO'}",
        f"parity                    : {'HOLDS' if holds else 'VIOLATED'}",
        "",
        "Parity is judged on the multiset of delivered anonymous payloads",
        "(wall clocks jitter; simulated clocks do not — timing and counter",
        "magnitudes legitimately differ between substrates).",
    ]
    return ["\n".join(lines)], [] if holds else ["sim and live runs are not at parity"]
