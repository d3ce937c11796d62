"""Subprocess entry point: host exactly one live RAC node.

``python -m repro.live.worker --directory HOST:PORT --index I --count N
--seed S --duration D [--messages M] [--port P] [--config JSON]``

The worker needs no secret distribution channel: the whole population's
key material is a deterministic function of ``(config, count, seed)``
(see :func:`repro.core.identity.build_population`), so each worker
rebuilds it locally and picks its own index. The directory supplies
only what determinism cannot — which TCP port each peer actually bound.

On exit the worker prints one JSON line summarising what its node
delivered and counted; the parent cluster aggregates these into a
:class:`repro.live.cluster.LiveReport`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..core.config import RacConfig, timer_regime
from ..core.identity import build_population
from ..scenario import ring_sends
from .node import LiveNode


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="repro.live.worker")
    parser.add_argument("--directory", required=True, help="HOST:PORT of the bootstrap directory")
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--messages", type=int, default=2)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--config", default="{}", help="JSON dict of RacConfig overrides")
    return parser.parse_args(argv)


def _build_config(overrides_json: str) -> RacConfig:
    overrides = json.loads(overrides_json)
    if not isinstance(overrides, dict):
        raise SystemExit("--config must be a JSON object")
    return timer_regime("wall", **overrides)


async def _amain(args: argparse.Namespace) -> dict:
    config = _build_config(args.config)
    population = build_population(config, args.count, args.seed)
    material = population[args.index]
    host, port_text = args.directory.rsplit(":", 1)

    node = LiveNode(
        material, config, host, int(port_text), port=args.port
    )
    await node.start()
    await node.activate(args.count)

    # The live harness's ring, restricted to this worker's own index so
    # the union across workers matches tasks mode.
    assert node.rac is not None and node.env is not None
    for src, dst_index, payload in ring_sends(args.count, args.messages, "live", args.seed):
        if src == args.index:
            dst = population[dst_index]
            node.rac.queue_message(
                dst.pseudonym_keypair.public, node.env.group_of(dst.node_id), payload
            )

    await asyncio.sleep(args.duration)
    delivered = node.delivered()
    counters = node.counters()
    errors = [repr(e) for e in (node.env.errors if node.env is not None else [])]
    await node.shutdown()
    return {
        "node_id": material.node_id,
        "delivered_hex": [payload.hex() for payload in delivered],
        "counters": counters,
        "errors": errors,
    }


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    summary = asyncio.run(_amain(args))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
