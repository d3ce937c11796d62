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

import tempfile
from typing import List, Tuple

from ..orchestrator.sharded import run_sharded
from ..simnet.shard import ScaleSpec, plan_shard_inputs

__all__ = ["sharded_evidence"]

MEMBERS = [8, 72, 136, 200]
SHIELD = {"mode": "shield", "members": MEMBERS}
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


def sharded_evidence() -> "Tuple[str, List[str]]":
    """(report text, the gated cells that failed)."""
    lines = ["sharded coalition evidence (N=256, 8 shards, serial)"]
    failed = []
    for label, fields in CELLS:
        spec = ScaleSpec(nodes=256, num_shards=8, seed=3, **fields)
        shards = plan_shard_inputs(spec)
        members = {shards[0].node_ids[i - 1] for i in MEMBERS}
        spanned = sum(1 for inputs in shards if members & {m.node_id for m in inputs.materials})

        with tempfile.TemporaryDirectory(prefix="coalition-shard-") as run_dir:
            outcome = run_sharded(spec, run_dir, serial=True)
        evicted = {int(k) for k in outcome.evicted}
        convicted, honest = len(evicted & members), len(evicted - members)

        if spec.plan == "storm":
            ok = True
            verdict = (
                f"{convicted}/{len(members)} members convicted, "
                f"{honest} honest evictions from storm-accumulated blame"
            )
        elif spec.coalition is None:
            ok = not evicted
            verdict = "clean" if ok else f"{len(evicted)} spurious evictions"
        elif evicted == members:
            ok, verdict = True, f"eviction set == member set ({convicted}/{len(members)})"
        else:
            ok, verdict = False, f"{convicted}/{len(members)} convicted, {honest} honest"
        if spec.coalition is not None and spanned < 2:
            ok = False
            verdict += "; members do not span >= 2 bundles"
        if not ok:
            failed.append(f"sharded cell failed: {label}: {verdict}")
        tag = "limit" if spec.plan == "storm" and ok else "ok" if ok else "FAIL"
        lines.append(
            f"  [{tag}] {label}: {verdict}; members span {spanned} bundles; "
            f"{len(outcome.delivered)} deliveries"
        )
    lines += [
        "  (sharded-vs-monolithic eviction equivalence at N=64 is pinned by",
        "   tests/integration/test_sharded_equivalence.py::TestCoalitionEquivalence)",
    ]
    return "\n".join(lines), failed
