"""Chaos soak (results/chaos_soak.txt): scripted fault plans, two
substrates, checked invariants.

Plays the canned fault plans on the simulator and the smoke timeline
on the live TCP runtime, every run judged by the
:class:`repro.chaos.invariants.InvariantChecker`: the evidence that
adversity (crashes, partitions, loss, degradation) never reads as
freeriding and that delivery resumes after every fault window heals.
The live half prints wall-clock counters, so the bytes are not pinned;
the verdict is the gate.
"""

from __future__ import annotations

from typing import List, Tuple

from ..scenario import run_params

__all__ = ["artefact"]

#: (substrate, plan, nodes, horizon, seeds)
SOAK_RUNS = (
    ("sim", "smoke", 8, 24.0, (0, 1)),
    ("sim", "storm", 8, 30.0, (0, 1, 2)),
    ("live", "smoke", 6, 18.0, (0,)),
)


def artefact() -> "Tuple[List[str], List[str]]":
    sections = ["chaos soak: scripted faults, checked invariants", ""]
    ok = True
    for substrate, plan, nodes, horizon, seeds in SOAK_RUNS:
        for seed in seeds:
            params = {"substrate": substrate, "plan": plan, "nodes": nodes, "horizon": horizon}
            outcome = run_params(params, seed, "chaos")
            ok = ok and outcome.ok
            sections += [f"== {substrate}/{plan} ==", outcome.render(), ""]
    sections.append(f"verdict: {'ALL INVARIANTS HELD' if ok else 'INVARIANT VIOLATION(S)'}")
    return ["\n".join(sections)], [] if ok else ["an invariant was violated"]
