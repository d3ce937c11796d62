"""Section V-B as an experiment: the Nash deviation scoreboard.

Two complementary views:

* the **analytic** table from :class:`repro.analysis.gametheory
  .NashAnalysis` — per-lemma expected utilities;
* the **simulated** verdicts — each freerider strategy dropped into a
  live population, reporting whether (and how fast) the protocol
  evicted it (``tests/integration/test_freeriders.py`` asserts them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.gametheory import NashAnalysis
from .runner import Table

__all__ = ["nash_table", "SimulatedDeviation", "simulate_deviation"]

#: The simulable deviations (the detectable ones; the undetectable
#: lemmas are analytic-only by nature): lemma label → behaviour-registry
#: name.
DEVIATIONS = {
    "drop-forwarding": "forward-dropper",
    "silent-relay": "silent-relay",
    "skip-noise": "no-noise",
}


def nash_table(analysis: "Optional[NashAnalysis]" = None) -> str:
    """Render the per-lemma deviation analysis."""
    if analysis is None:
        analysis = NashAnalysis()
    table = Table(
        headers=["Lemma", "Deviation", "Detection p", "E[rounds alive]", "Utility gain", "Rational?"],
        title=(
            "Nash deviation analysis "
            f"(R={analysis.R}, L={analysis.L}, G={analysis.G}, f={analysis.f:.0%})"
        ),
    )
    for outcome in analysis.evaluate_all():
        d = outcome.deviation
        rounds = outcome.expected_rounds_until_eviction
        table.add_row(
            d.lemma,
            d.name,
            f"{d.detection_probability:.3g}",
            "inf" if rounds == float("inf") else f"{rounds:.0f}",
            f"{outcome.gain:+.1f}",
            "YES (violation!)" if outcome.deviation_is_rational else "no",
        )
    verdict = "holds" if analysis.is_nash_equilibrium() else "VIOLATED"
    return table.render() + f"\nTheorem 1 (Nash equilibrium): {verdict}"


@dataclass
class SimulatedDeviation:
    """A live-population verdict for one deviating node."""

    strategy: str
    evicted: bool
    eviction_time: Optional[float]
    false_evictions: int
    population: int


def simulate_deviation(
    strategy_name: str,
    population: int = 14,
    seed: int = 3,
    max_time: float = 30.0,
) -> SimulatedDeviation:
    """Drop one deviating node into an honest population and watch.

    Traffic is generated in a ring of flows (every honest node sends to
    the next) so relays and forwards are continuously exercised.
    """
    from ..scenario import Scenario, prepare

    if strategy_name not in DEVIATIONS:
        raise ValueError(f"unknown simulable strategy {strategy_name!r}")
    run = prepare(Scenario(
        nodes=population,
        horizon=max_time + 0.6,
        seed=seed,
        config=dict(relay_timeout=0.8, blacklist_period=1.0),
        deviants={0: DEVIATIONS[strategy_name]},
        traffic="ring", messages=0,
    ))
    try:
        system = run.system
        deviant, honest = run.node_ids[0], run.node_ids[1:]
        system.run(1.2)
        step = 0
        while system.now < max_time and system.nodes[deviant].active:
            for i, src in enumerate(honest):
                system.send(src, honest[(i + 1) % len(honest)], b"flow-%d" % step)
            system.run(0.6)
            step += 1
        outcome = run.outcome()
        return SimulatedDeviation(
            strategy=strategy_name,
            evicted=outcome.detected,
            eviction_time=outcome.detection_time_s,
            false_evictions=outcome.honest_evictions,
            population=population,
        )
    finally:
        run.close()
