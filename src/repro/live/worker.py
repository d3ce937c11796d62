"""Subprocess entry point: host exactly one live RAC node of a scenario.

``python -m repro.live.worker --directory HOST:PORT --index I
--scenario JSON [--port P]``

``JSON`` is a :meth:`repro.scenario.Scenario.to_dict`. The worker needs
no secret distribution channel: the whole population's key material is
a deterministic function of the scenario's config and seed (see
:func:`repro.core.identity.build_population`), so each worker rebuilds
it locally and picks its own index. The directory supplies only what
determinism cannot — which TCP port each peer actually bound.

The worker offers its own share of the scenario's traffic and runs to
the horizon. On exit it prints one JSON line, its node's
:meth:`~repro.live.node.LiveNode.report` plus how many sends the node
accepted; :func:`~repro.live.cluster.run_workers` collects these lines
into the same :class:`~repro.live.cluster.LiveReport` a tasks-mode
cluster returns, and :func:`repro.scenario.run_scenario` judges it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..core.identity import build_population
from ..scenario import Scenario, play_traffic, traffic_sends
from .node import LiveNode


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="repro.live.worker")
    parser.add_argument("--directory", required=True, help="HOST:PORT of the bootstrap directory")
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--scenario", required=True, help="the scenario as JSON")
    parser.add_argument("--port", type=int, default=0)
    return parser.parse_args(argv)


async def _amain(args: argparse.Namespace) -> dict:
    scenario = Scenario.from_dict(json.loads(args.scenario))
    config = scenario.configuration()
    population = build_population(config, scenario.nodes, scenario.seed)
    host, port_text = args.directory.rsplit(":", 1)
    node = LiveNode(population[args.index], config, host, int(port_text), port=args.port)
    await node.start()
    await node.activate(scenario.nodes)
    sent = 0

    def send(_src: int, dst: int, payload: bytes) -> None:
        nonlocal sent
        sent += node.send(population[dst], payload)

    node_ids = [material.node_id for material in population]
    own = [s for s in traffic_sends(scenario, node_ids, node.env.directory) if s[1] == args.index]
    traffic = asyncio.get_running_loop().create_task(play_traffic(own, lambda: node.env.now, send))
    await asyncio.sleep(scenario.horizon)
    traffic.cancel()
    [played] = await asyncio.gather(traffic, return_exceptions=True)
    report = {**node.report(), "sent": sent}
    if isinstance(played, Exception):  # the traffic stopped there: say so
        report["errors"].append(f"traffic: {played!r}")
    await node.shutdown()
    return report


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    print(json.dumps(asyncio.run(_amain(args))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
