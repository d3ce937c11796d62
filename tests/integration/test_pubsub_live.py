"""Live pub/sub over real TCP: dynamic joins, splits, dissolves.

These are the acceptance tests of the service layer on the live
runtime. The first proves the §IV-C admission path end to end — a
puzzle ticket solved client-side mid-run, verified at every replica,
the joiner subscribing and *receiving* a publish. The second replays
the full scripted bench (join → split, unsubscribe, leaves → dissolve)
and holds it to the CI gate: at least one live split AND one live
dissolve, zero honest evictions, delivery parity, invariants green.

Live runs spend wall-clock time; the pub/sub config keeps misbehaviour
timers far beyond the scenario horizon so honest churn can never read
as freeriding.
"""

import asyncio

import pytest

from repro.pubsub import PubSubApiError, PubSubClient, PubSubService
from repro.pubsub.admission import AdmissionTicket, solve_ticket
from repro.pubsub.bench import check_report, run_bench


async def _wait_for_topic(client, topic, count, timeout=12.0):
    """Poll the delivery ledger until ``topic`` has ``count`` deliveries."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        delivered = await client.delivered()
        if delivered.get(topic, 0) >= count:
            return delivered
        if asyncio.get_running_loop().time() >= deadline:
            return delivered
        await asyncio.sleep(0.25)


class TestLiveJoinAfterStart:
    def test_ticketed_join_subscribes_and_receives(self):
        asyncio.run(self._run())

    async def _run(self):
        service = PubSubService(3, seed=11)
        config = service.config
        await service.start()
        port = await service.serve()
        client = await PubSubClient("127.0.0.1", port).connect()
        try:
            # Past the 2T relay quarantine of the bootstrap cohort.
            await asyncio.sleep(2 * config.join_settle_time + 0.5)

            # A forged ticket is rejected at the door, changing nothing.
            good = solve_ticket(config, base=777_777)
            forged = AdmissionTicket(
                base=good.base, vector=good.vector + 1, node_id=good.node_id
            )
            with pytest.raises(PubSubApiError, match="puzzle"):
                await client.join(forged)
            assert len(service.cluster.live_nodes()) == 3

            # The genuine ticket admits the node at every replica...
            joined = await client.join(good)
            joiner = int(joined["index"])
            assert len(service.cluster.live_nodes()) == 4
            assert int(joined["node_id"], 16) == good.node_id

            # ...and the joiner immediately participates as a subscriber.
            assert await client.subscribe(joiner, "fresh")
            await client.publish(0, "fresh", b"welcome aboard")
            delivered = await _wait_for_topic(client, "fresh", 1)
            assert delivered.get("fresh", 0) >= 1
        finally:
            await client.close()
        report = await service.stop(duration=2.0)
        assert report.joins == 1
        assert not report.live.evicted
        assert report.invariants.ok, report.invariants.render()
        assert report.parity.ok, report.parity.missing


class TestLiveBenchScenario:
    def test_bench_passes_the_ci_gate(self):
        report = asyncio.run(run_bench(nodes=6, seed=0, settle=2.5))
        ok, failures = check_report(report)
        assert ok, "; ".join(failures)
        # The report is explicit about what the gate verified.
        assert report.splits >= 1
        assert report.dissolves >= 1
        assert report.joins == 1 and report.leaves == 2
        assert report.delivered_by_topic.get("alpha", 0) >= 2
