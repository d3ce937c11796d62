"""Live worker processes: every node in its own ``python -m
repro.live.worker`` process, the path ``repro live demo --subprocess``
takes. ``run_scenario(..., processes=True)`` judges what the workers
report with the same checker as every other run, and every replica
evicts on its own, by the replica rule: nobody coordinates."""

from repro.scenario import Scenario, run_scenario


def live_ring(**config):
    return Scenario.from_params({"substrate": "live", "nodes": 4, "horizon": 4.0, **config}, 0, "live")


def test_four_workers_deliver_the_live_ring():
    scenario = live_ring()
    workers = run_scenario(scenario, "live", processes=True)
    assert workers.ok and not workers.errors and not workers.evictions, workers.render()
    tasks = run_scenario(scenario, "live")
    assert tasks.ok, tasks.render()
    assert workers.delivered_multiset() == tasks.delivered_multiset()
    assert len(workers.directory_digests) == len(tasks.directory_digests) == 4
    # One directory on every replica of both modes.
    assert len(set(workers.directory_digests.values()) | set(tasks.directory_digests.values())) == 1


def test_a_worker_reports_the_ids_its_replica_evicted():
    # Timers far below one origination slot: every replica convicts
    # honest peers within the first second of wall clock.
    starved = {"relay_timeout": 0.005, "predecessor_timeout": 0.002, "rate_window": 0.05}
    outcome = run_scenario(live_ring(**starved, enforce_contract=0), "live", processes=True)
    assert outcome.evictions and outcome.counters.get("evictions_applied"), outcome.render()
    assert {e.accused for e in outcome.evictions} <= set(outcome.node_ids)
    assert outcome.honest_evictions and not outcome.ok, outcome.render()
    assert "safety-eviction" in outcome.render()
    # Every replica still running holds the same directory.
    assert len(set(outcome.directory_digests.values())) == 1, outcome.directory_digests

