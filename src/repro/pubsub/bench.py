"""The scripted live pub/sub scenario behind ``repro pubsub bench``.

One small deployment walks the whole §IV-C membership lifecycle over
real TCP, driven end-to-end through the framed client API (real client
bytes, not in-process shortcuts):

1. subscribe/publish on the bootstrap population;
2. one **dynamic join** (puzzle-verified at every replica) pushing the
   single group past ``smax`` — the first live **split** — after which
   the joiner subscribes and receives a publish;
3. an **unsubscribe**, after which the topic goes quiet for that node;
4. two **leaves** from the smallest group, shrinking it below ``smin``
   — the first live **dissolve**;
5. a final publish proving delivery continues after the churn.

``check_report`` is the CI gate (``make pubsub-smoke``): at least one
split and one dissolve, zero evictions (churn must never read as
freeriding), delivery parity for every still-subscribed topic, and the
embedded invariant checker green.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from ..core.config import RacConfig
from .client import PubSubClient
from .service import PubSubReport, PubSubService

__all__ = ["run_bench", "run_bench_blocking", "check_report"]


async def run_bench(
    nodes: int = 6,
    *,
    seed: int = 0,
    settle: float = 3.0,
    config: "Optional[RacConfig]" = None,
    port_base: "Optional[int]" = None,
) -> PubSubReport:
    """Run the scenario; returns the service's final report."""
    service = PubSubService(nodes, config, seed, port_base=port_base)
    config = service.config
    if nodes > config.group_max:
        raise ValueError("bench wants bootstrap to fit one group (nodes <= group_max)")
    await service.start()
    api_port = await service.serve()
    client = await PubSubClient("127.0.0.1", api_port).connect()
    try:
        # Let the cohort clear the 2T relay quarantine before traffic.
        await asyncio.sleep(2 * config.join_settle_time + 0.5)

        # Phase 1: plain pub/sub on the bootstrap population.
        await client.subscribe(0, "alpha")
        await client.subscribe(1, "alpha")
        await client.subscribe(2, "beta")
        await client.publish(3, "alpha", b"bench/alpha/1")
        await client.publish(4, "beta", b"bench/beta/1")
        await asyncio.sleep(settle)

        # Phase 2: dynamic join -> the group outgrows smax -> live split.
        joined = await client.join()
        joiner_index = int(joined["index"])
        await client.subscribe(joiner_index, "gamma")
        await client.publish(0, "gamma", b"bench/gamma/1")
        await asyncio.sleep(settle)

        # Phase 3: unsubscribe; later beta publishes reach nobody.
        await client.unsubscribe(2, "beta")
        await client.publish(4, "beta", b"bench/beta/2")

        # Phase 4: two leaves from the smallest group -> live dissolve.
        for index in _leave_candidates(service, count=2, keep={0, 1, joiner_index}):
            await client.leave(index)
        await asyncio.sleep(settle / 2)

        # Phase 5: delivery survives the churn.
        publisher = _alive_index(service, avoid={0, 1})
        await client.publish(publisher, "alpha", b"bench/alpha/2")
        await asyncio.sleep(settle)
    finally:
        await client.close()
    return await service.stop(duration=4 * settle)


def _leave_candidates(service: PubSubService, count: int, keep: set) -> "List[int]":
    """Pick ``count`` members of the smallest group to depart,
    preferring nodes whose subscriptions the scenario still needs to
    demonstrate delivery on (``keep``) stay."""
    directory = service.cluster.group_directory
    assert directory is not None
    sizes = directory.sizes()
    smallest_gid = min(sizes, key=lambda gid: (sizes[gid], gid))
    members = set(directory.groups[smallest_gid].members)
    index_of = {m.node_id: i for i, m in enumerate(service.cluster.materials)}
    gone = set(service.cluster.evicted) | set(service.cluster.departed)
    candidates = sorted(
        (index_of[nid] for nid in members if nid not in gone),
        key=lambda idx: (idx in keep, idx),
    )
    return candidates[:count]


def _alive_index(service: PubSubService, avoid: set) -> int:
    gone = set(service.cluster.evicted) | set(service.cluster.departed)
    for index, material in enumerate(service.cluster.materials):
        if material.node_id not in gone and index not in avoid:
            return index
    raise RuntimeError("no live publisher left")


def check_report(report: PubSubReport) -> "Tuple[bool, List[str]]":
    """The pubsub-smoke gate; returns (ok, failure reasons)."""
    failures: "List[str]" = []
    if report.splits < 1:
        failures.append(f"expected >=1 live group split, saw {report.splits}")
    if report.dissolves < 1:
        failures.append(f"expected >=1 live group dissolve, saw {report.dissolves}")
    if report.live.evicted:
        failures.append(
            f"honest churn must not evict anyone, saw {len(report.live.evicted)} evictions"
        )
    if not report.parity.ok:
        failures.append(
            f"delivery parity broken: {len(report.parity.missing)} fan-outs missing"
        )
    if report.parity.delivered < 1:
        failures.append("no ledgered deliveries at all")
    if report.delivered_by_topic.get("gamma", 0) < 1:
        failures.append("dynamic joiner never received its subscription")
    if report.delivered_by_topic.get("beta", 0) != 1:
        failures.append(
            "unsubscribe did not stop delivery: beta saw "
            f"{report.delivered_by_topic.get('beta', 0)} deliveries (expected 1)"
        )
    if not report.invariants.ok:
        failures.append("invariant checker: " + report.invariants.render())
    return (not failures, failures)


def run_bench_blocking(nodes: int = 6, **kwargs) -> PubSubReport:
    return asyncio.run(run_bench(nodes, **kwargs))
