"""The N=256 sharded coalition cells at the end of
results/coalition_frontier.txt.

Three cells on 8 shards whose planted members span several group
bundles: a no-coalition control that must evict nobody, a shield
coalition whose eviction set must be exactly its member set (the
cross-shard consistency contract, DESIGN.md §4), and shield under a
full-density storm, which is reported but deliberately *not* gated.
There honest nodes are convicted on predecessor evidence (all 60
honest evictions of the committed line are ``predecessor`` verdicts,
from 7.3 s on) whatever the f-headroom: a measured limit of the
paper's accountability design at scale (ROADMAP items 1 and 2), not a
harness bug.
"""

from __future__ import annotations

import dataclasses
import tempfile
from typing import Any, Dict, List, Tuple

__all__ = ["cell_scenario", "sharded_evidence"]

#: 0-based creation indices.
MEMBERS = [7, 71, 135, 199]
SHIELD = {"mode": "shield", "members": MEMBERS}
SHARDS = 8
# The scale preset keeps relay_timeout at the theoretical minimum (L+2
# origination slots); at N=256 one honest relay's re-broadcast can land
# late, so these cells double it — the control proves that evicts nobody.
CLEAN = {"relay_timeout": 2.0}
# Every misbehaviour timer above the storm plan's healing windows (the
# timer contract insists) and the quorum at f=0.25.
STORM = dict(
    relay_timeout=4.0, predecessor_timeout=4.0, rate_window=4.0, assumed_opponent_fraction=0.25
)
CELLS = (
    ("control: no coalition", dict(horizon=6.0, config=CLEAN)),
    ("shield coalition, 4 members", dict(horizon=6.0, config=CLEAN, coalition=SHIELD)),
    (
        "shield under full-density storm, f=0.25 quorum (ungated limit)",
        dict(horizon=14.0, config=STORM, coalition=SHIELD, plan="storm"),
    ),
)


def cell_scenario(fields: "Dict[str, Any]"):
    """One cell of :data:`CELLS` as a ``scale`` scenario of 256 nodes."""
    from ..scenario import Scenario

    params = {**fields["config"], "nodes": 256, "horizon": fields["horizon"], "plan": fields.get("plan")}
    return dataclasses.replace(
        Scenario.from_params(params, 3, "scale"), coalition=fields.get("coalition")
    )


def sharded_evidence() -> "Tuple[str, List[str]]":
    """(report text, the gated cells that failed)."""
    from ..scenario import run_scenario
    from ..simnet.shard import plan_shard_inputs

    lines = [f"sharded coalition evidence (N=256, {SHARDS} shards, serial)"]
    failed = []
    for label, fields in CELLS:
        scenario = cell_scenario(fields)
        with tempfile.TemporaryDirectory(prefix="coalition-shard-") as run_dir:
            outcome = run_scenario(scenario, "sharded", shards=SHARDS, run_dir=run_dir, serial=True)
        members = {outcome.node_ids[i] for i in MEMBERS}
        spanned = sum(
            1 for inputs in plan_shard_inputs(scenario, SHARDS) if members & {m.node_id for m in inputs.materials}
        )
        evicted = {e.accused for e in outcome.evictions}
        convicted, honest = len(evicted & members), len(evicted - members)

        if scenario.plan == "storm":
            ok = True
            verdict = (
                f"{convicted}/{len(members)} members convicted, "
                f"{honest} honest evictions from storm-accumulated blame"
            )
        elif scenario.coalition is None:
            ok = not evicted
            verdict = "clean" if ok else f"{len(evicted)} spurious evictions"
        elif evicted == members:
            ok, verdict = True, f"eviction set == member set ({convicted}/{len(members)})"
        else:
            ok, verdict = False, f"{convicted}/{len(members)} convicted, {honest} honest"
        if scenario.coalition is not None and spanned < 2:
            ok = False
            verdict += "; members do not span >= 2 bundles"
        if not ok:
            failed.append(f"sharded cell failed: {label}: {verdict}")
        tag = "limit" if scenario.plan == "storm" and ok else "ok" if ok else "FAIL"
        lines.append(
            f"  [{tag}] {label}: {verdict}; members span {spanned} bundles; "
            f"{len(outcome.deliveries)} deliveries"
        )
    lines += [
        "  (sharded-vs-monolithic eviction equivalence at N=64 is pinned by",
        "   tests/integration/test_sharded_equivalence.py::TestCoalitionEquivalence)",
    ]
    return "\n".join(lines), failed
