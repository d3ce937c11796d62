#!/usr/bin/env python
"""Sim/live parity artefact: one scenario, two substrates, one table.

Runs the canonical 8-node parity scenario (each node sends 2 anonymous
messages to its creation-order successor) twice — once on the
deterministic packet simulator, once over real localhost TCP sockets —
and records whether both substrates delivered the same anonymous-
payload multiset with zero accusations and zero evictions.

Run ``python experiments/live_parity.py`` (results land in
``results/live_parity.txt``), or ``--smoke`` for a 4-node/3-second
variant. Exit code 0 iff parity holds.

The live half spends real wall-clock time (~duration seconds); the
recorded artefact notes the machine it ran on being shared/loaded is
irrelevant because parity is judged on delivery *sets*, never timing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import Table  # noqa: E402
from repro.scenario import Scenario, ring_sends, run_scenario  # noqa: E402


def parity_scenario(nodes: int, messages: int, horizon: float, seed: int = 0) -> Scenario:
    """One scenario for both substrates: the ``wall`` timer regime
    stretches timers so wall-clock scheduling jitter cannot fake a
    misbehaviour, and turns the blacklist shuffle off on the simulator
    too (the live runtime does not host it)."""
    return Scenario(
        nodes=nodes,
        horizon=horizon,
        seed=seed,
        regime="wall",
        traffic="ring",
        messages=messages,
        tag="live",
    )


def run_parity(scenario: Scenario) -> "tuple[str, bool]":
    sim = run_scenario(scenario, "sim")
    live = run_scenario(scenario, "live")
    messages = scenario.messages
    expected = sorted(
        payload for _s, _d, payload in ring_sends(scenario.nodes, messages, scenario.tag, scenario.seed)
    )

    table = Table(
        headers=["substrate", "delivered", "expected", "accusations", "evictions", "complete"],
        title=(
            f"sim/live parity: {scenario.nodes} nodes, "
            f"{messages} msg/node, {scenario.horizon:.0f}s, "
            f"seed {scenario.seed}"
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
    return "\n".join(lines), holds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="4 nodes / 3 s variant")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "results" / "live_parity.txt"),
        help="artefact path (default: results/live_parity.txt)",
    )
    args = parser.parse_args()

    scenario = parity_scenario(4, 1, 3.0) if args.smoke else parity_scenario(8, 2, 8.0)
    text, holds = run_parity(scenario)
    print(text)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text + "\n")
    print(f"\nwrote {output}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
