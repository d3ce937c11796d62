#!/usr/bin/env python
"""Chaos soak artefact: scripted fault plans, two substrates, invariants.

Plays the canned fault plans (the CI ``smoke`` timeline and a denser
seeded ``storm``) on the deterministic simulator and the smoke timeline
on the live TCP runtime, feeding every run through the
:class:`repro.chaos.invariants.InvariantChecker`. The artefact records,
per run: deliveries, accusations, evictions, the shaping counters and
the invariant verdict — the committed evidence that adversity (crashes,
partitions, loss, degradation) never reads as freeriding and that
delivery resumes after every fault window heals.

Run ``python experiments/chaos_soak.py`` (results land in
``results/chaos_soak.txt``), or ``--smoke`` for a shorter variant. The
live half spends real wall-clock time. Exit code 0 iff every invariant
held on every run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenario import run_params  # noqa: E402


def _run(substrate: str, plan: str, nodes: int, horizon: float, seed: int):
    params = {"substrate": substrate, "plan": plan, "nodes": nodes, "horizon": horizon}
    return run_params(params, seed, "chaos")


def soak(smoke_only: bool) -> "tuple[str, bool]":
    runs = []
    if smoke_only:
        sim_specs = [("smoke", 8, 18.0, [0])]
        live_spec = (6, 12.0, 0)
    else:
        sim_specs = [
            ("smoke", 8, 24.0, [0, 1]),
            ("storm", 8, 30.0, [0, 1, 2]),
        ]
        live_spec = (6, 18.0, 0)

    for name, nodes, horizon, seeds in sim_specs:
        for seed in seeds:
            runs.append((f"sim/{name}", _run("sim", name, nodes, horizon, seed)))
    runs.append(("live/smoke", _run("live", "smoke", *live_spec)))

    ok = all(outcome.ok for _, outcome in runs)
    sections = ["chaos soak: scripted faults, checked invariants", ""]
    for label, outcome in runs:
        sections.append(f"== {label} ==")
        sections.append(outcome.render())
        sections.append("")
    sections.append(f"verdict: {'ALL INVARIANTS HELD' if ok else 'INVARIANT VIOLATION(S)'}")
    return "\n".join(sections) + "\n", ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="short variant (one sim + one live run)")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "results" / "chaos_soak.txt"),
        help="artefact path (default results/chaos_soak.txt)",
    )
    args = parser.parse_args()

    text, ok = soak(smoke_only=args.smoke)
    print(text, end="")
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"[wrote {out}]", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
