"""The subprocess live runner: every node in its own ``python -m
repro.live.worker`` process, the path ``repro live demo --subprocess``
takes. The worker builds its own config and queues its own share of the
ring traffic, so the union of what the workers deliver must be exactly
the live harness's ring."""

from repro.live.cluster import run_subprocess_demo
from repro.scenario import ring_sends


def test_four_workers_deliver_the_live_ring():
    report = run_subprocess_demo(4, 4.0, seed=0, messages=2)
    assert report.errors == []
    # a worker applies an eviction locally and counts the report
    assert not report.evicted and not report.counters().get("eviction_reports"), report.render()
    delivered = sorted(payload for payloads in report.delivered.values() for payload in payloads)
    assert delivered == sorted(payload for _src, _dst, payload in ring_sends(4, 2, "live", 0))


def test_a_worker_reports_the_ids_its_replica_evicted():
    # Timers far below one origination slot: every replica convicts
    # somebody within the first second of wall clock.
    starved = {"relay_timeout": 0.005, "predecessor_timeout": 0.002, "rate_window": 0.05}
    report = run_subprocess_demo(4, 3.0, seed=0, messages=2, config_overrides=starved)
    assert report.counters().get("evictions_applied"), report.render()
    assert report.evicted and set(report.evicted) <= set(report.per_node), report.render()
    assert f"evictions            : {len(report.evicted)}" in report.render()
