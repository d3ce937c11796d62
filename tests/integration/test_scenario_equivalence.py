"""Characterisation pins: one cell per runner ``run_scenario`` replaced.

Every digest below was recorded **on commit 42780da**, the last commit
with ``run_chaos_sim``, ``run_topo_sim``, ``run_campaign_cell``'s own
pipeline, ``run_monolithic``, ``run_sim_scenario`` and the hand-rolled
``protocol`` workload, by running the old entry point named in each
cell's comment and hashing what its ``RacSystem`` held at the end. They
are identical under ``PYTHONHASHSEED=1`` and ``=2``. The one runner must
reproduce them: same counters (so every event kept its ``(time, seq)``),
same delivered multiset, same evictions at the same instants, same
verdict, same metrics.

Re-recorded once since, on the commit that made the router → downlink
hop of an overtaking-free star one event instead of two: the
``counters`` digest of the six cells on such a star (chaos-smoke
6bf358c2…, campaign-frame 761a52e7…, campaign-false-accuser b15963f9…,
monolithic 5bc98936…, parity e5d626c1…, protocol 34c3aab1… before) and
the protocol workload's metrics digest (f8eaf861… before, its
``events_processed`` key). Their ``counters_observable`` twins were
recorded on the commit before and did not move, nor did anything else.
And once more for ``campaign-storm`` alone (``counters`` 4498c878…
before; 421,019 → 285,020 events), on the commit that stopped a
scheduled degradation from switching that fold off for the whole run:
only packets near an edge of the fault plan still pay the hop. Its
``counters_observable`` twin was recorded on the commit before and did
not move.

Each digest is the first 16 hex digits of a SHA-256 over:

* ``counters`` — ``repr(sorted(stats_report().items()))``;
* ``counters_observable`` — the same without ``ENGINE_TALLIES``, the
  keys that count calendar entries rather than behaviour;
* ``delivered`` — ``repr`` of the sorted delivered payloads;
* ``evictions`` — ``repr`` of the sorted ``(accused, kind, by, at)``;
* ``report`` — ``InvariantReport.checks`` and the rendered violations.
  The ``directory_checks`` tally is left out of the hash and asserted
  to be 1 instead: the old campaign runner never probed the group
  directory, the one judge always does;
* ``metrics`` — ``repr(sorted(metrics().items()))`` over the keys the
  old runner reported (the one ``Outcome.metrics()`` is their union).
"""

import hashlib

import pytest

from repro.orchestrator.workloads import WorkerContext, protocol_run
from repro.scenario import Scenario
from repro.simnet.shard import ScaleSpec
from tests.scenario_cells import campaign_cell, run_cell

TOPO_KEYS = (
    "deliveries", "detected", "detection_time_s", "evictions", "honest_evictions",
    "latency_mean_s", "latency_p95_s", "missed_detections", "throughput_bps", "violations",
)
CAMPAIGN_KEYS = (
    "accusations", "anonymity_entropy_bits", "attribution_accuracy", "blacklist_violations",
    "chance_level", "coalition_evicted", "coalition_fraction", "coalition_size",
    "deanon_rounds_log10", "deliveries", "detected", "detection_time_s", "evictions",
    "honest_evictions", "liveness_violations", "missed_detections", "net_packets_dropped",
    "relay_threshold", "shuffle_rounds", "sim_time_s", "transport_retransmits", "violations",
)
PROTOCOL_KEYS = (
    "delivered_bytes", "deliveries", "events_processed", "evictions", "latency_mean_s",
    "net_packets_delivered", "net_packets_dropped", "sim_time_s", "throughput_bps",
    "transport_retransmits",
)
PROTOCOL_PARAMS = {"nodes": 6, "duration": 2.0, "messages": 2}
ENGINE_TALLIES = frozenset(
    {"sim_events_processed", "sim_events_cancelled", "sim_queue_compactions", "sim_queue_pending"}
)

#: name → (how the cell runs now, pins, metric keys the old runner had)
CELLS = {
    # run_chaos_sim(smoke_plan(6, 12.0, seed=3), nodes=6, seed=3)
    "chaos-smoke": (
        lambda: run_cell(
            Scenario.from_params({"plan": "smoke", "nodes": 6, "horizon": 12.0}, 3, "chaos")
        ),
        dict(counters="80158abe7a7572a8", counters_observable="8b9015edeb7153a5",
             delivered="da31a4f1faecaf46", evictions="4f53cda18c2baa0c", report="53a1d4b9b6e8e985"),
        (),
    ),
    # run_topo_sim(wan_king(8), nodes=8, horizon=6.0, seed=0, deviant="forward-dropper")
    "topo-deviant": (
        lambda: run_cell(
            Scenario.from_params(
                {"topology": "wan-king", "nodes": 8, "horizon": 6.0, "deviant": "forward-dropper"},
                0,
                "topo",
            )
        ),
        dict(counters="90b6c52fef7ff06a", delivered="8923b5f77c4de573",
             evictions="4f53cda18c2baa0c", report="37f201636e80fca5", metrics="eb223b54b84875ff"),
        TOPO_KEYS,
    ),
    # run_topo_sim(planet_diurnal(9), nodes=9, horizon=12.0, seed=1, churn=True)
    "topo-churn": (
        lambda: run_cell(
            Scenario.from_params(
                {"topology": "planet-diurnal", "nodes": 9, "horizon": 12.0, "churn": 1}, 1, "topo"
            )
        ),
        dict(counters="2cd6ed8b7cef6f53", delivered="843b9b8d90f04c41",
             evictions="4f53cda18c2baa0c", report="87f034b5081c8283", metrics="c39834532700e944"),
        TOPO_KEYS,
    ),
    # run_campaign_cell(<these params>, 0) — the three below
    "campaign-storm": (
        lambda: campaign_cell(
            {"strategy": "silent-relay", "plan": "storm", "nodes": 10, "horizon": 12.0}, 0
        ),
        dict(counters="cf1911b455cceeb1", counters_observable="56caec1e5117c5c6",
             delivered="8aaddb1c194dca14", evictions="0646cb8e8c5ac2f5",
             report="5e515fde426221e1", metrics="a7c34eb3655a4b86"),
        CAMPAIGN_KEYS,
    ),
    # frame at exactly floor(f·G)+1 = 4/12: the victim is evicted
    "campaign-frame": (
        lambda: campaign_cell(
            {
                "strategy": "coalition-frame",
                "plan": "none",
                "nodes": 12,
                "horizon": 4.0,
                "coalition_fraction": 4 / 12,
                "shuffle_rounds": 2,
                "assumed_opponent_fraction": 0.25,
            },
            0,
        ),
        dict(counters="2c5aeb8678fbc0cd", counters_observable="e5a2f8db627b06cf",
             delivered="95e268b0279005e9", evictions="2a5b18661819f676",
             report="ba7da1ba77e63f6f", metrics="1b8fa5a86e22f3d9"),
        CAMPAIGN_KEYS,
    ),
    "campaign-false-accuser": (
        lambda: campaign_cell(
            {"strategy": "false-accuser", "plan": "none", "loss": 0.0, "nodes": 10, "horizon": 12.0},
            0,
        ),
        dict(counters="9f7c5b9df0126753", counters_observable="3c17de684eb52136",
             delivered="729f1341e5e5c605", evictions="4f53cda18c2baa0c",
             report="ba9345b86e439db4", metrics="e2046808a1851027"),
        CAMPAIGN_KEYS,
    ),
    # run_monolithic(ScaleSpec(nodes=32, num_shards=2, horizon=2.0))
    "monolithic": (
        lambda: run_cell(ScaleSpec(nodes=32, num_shards=2, horizon=2.0).scenario()),
        dict(counters="5559194b59c04b8f", counters_observable="a4ffdb67191a7397",
             delivered="ce573696f0f3b6a7", evictions="4f53cda18c2baa0c"),
        (),
    ),
    # run_sim_scenario(ParityScenario(nodes=6, duration=4.0))
    "parity": (
        lambda: run_cell(
            Scenario(nodes=6, horizon=4.0, regime="wall", traffic="ring", messages=2, tag="live")
        ),
        dict(counters="b49e3c5b23b23ee8", counters_observable="844ca0c1d372dd66",
             delivered="bc7697545303f6cd", evictions="4f53cda18c2baa0c"),
        (),
    ),
    # protocol_run(PROTOCOL_PARAMS, 5, WorkerContext())
    "protocol": (
        lambda: run_cell(Scenario.from_params(PROTOCOL_PARAMS, 5, "protocol")),
        dict(counters="aa5c53c545daeeea", counters_observable="4f0c0c4eea3c5e02",
             delivered="1efbae31a95149d8", evictions="4f53cda18c2baa0c"),
        (),
    ),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def metrics_digest(metrics, keys) -> str:
    return digest(sorted((key, metrics[key]) for key in keys))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_the_one_runner_reproduces_the_parent(name):
    run, pins, metric_keys = CELLS[name]
    outcome = run()
    checks = dict(outcome.report.checks)
    assert checks.pop("directory_checks") == 1
    measured = {
        "counters": digest(sorted(outcome.counters.items())),
        "counters_observable": digest(
            sorted(item for item in outcome.counters.items() if item[0] not in ENGINE_TALLIES)
        ),
        "delivered": digest(outcome.delivered_multiset()),
        "evictions": digest(sorted((e.accused, e.kind, e.by, e.at) for e in outcome.evictions)),
        "report": digest((sorted(checks.items()), [str(v) for v in outcome.report.violations])),
        "metrics": metrics_digest(outcome.metrics(), metric_keys),
    }
    assert {key: measured[key] for key in pins} == pins


def test_protocol_workload_metrics_match_the_parent():
    metrics = protocol_run(PROTOCOL_PARAMS, 5, WorkerContext())
    assert metrics_digest(metrics, PROTOCOL_KEYS) == "55a068170adb90c1"
