"""The lan-equivalence gate.

The ``lan`` preset must be byte-identical to running with no topology
at all: :func:`repro.scenario.prepare` relies on it (a ``lan`` scenario
runs on the bare star), and every committed LAN result predates the
topology layer. ``repro topo verify`` and ``make topo-smoke`` enforce
it. Judged topology runs go through :func:`repro.scenario.run_scenario`.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..scenario import Scenario, prepare
from .model import TopologyModel, lan

__all__ = ["run_digest", "lan_equivalence"]


def run_digest(
    topology: "Optional[TopologyModel]" = None,
    *,
    nodes: int = 8,
    horizon: float = 4.0,
    seed: int = 4242,
) -> str:
    """Digest of everything observable in a fixed-seed traffic run:
    the full stats report, every delivered payload per node, the final
    clock and the event count."""
    run = prepare(Scenario(
        nodes=nodes, horizon=horizon, seed=seed, topology=topology,
        traffic="ring", messages=1, tag="topo-gate",
    ))
    try:
        run.run_to(horizon)
        system = run.system
        hasher = hashlib.sha256()
        hasher.update(repr(sorted(system.stats_report().items())).encode())
        for node_id in sorted(system.nodes):
            for payload in system.nodes[node_id].delivered:
                hasher.update(f"d|{node_id}|".encode())
                hasher.update(payload)
        hasher.update(f"end|{system.now!r}|{system.sim.events_processed}".encode())
        return hasher.hexdigest()
    finally:
        run.close()


def lan_equivalence(*, nodes: int = 8, horizon: float = 4.0, seed: int = 4242):
    """(digest without topology, digest under the ``lan`` preset).

    Equal digests prove the preset is byte-identical to the paper's
    star — the acceptance gate `repro topo verify` and `make topo-smoke`
    enforce.
    """
    return (
        run_digest(None, nodes=nodes, horizon=horizon, seed=seed),
        run_digest(lan(nodes), nodes=nodes, horizon=horizon, seed=seed),
    )
