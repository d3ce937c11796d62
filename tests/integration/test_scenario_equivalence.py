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
And once more for all nine ``counters`` digests and the protocol
workload's metrics digest, on the commit that turned the ARQ's
per-transmission timers into tickets behind one watch entry: nothing is
cancelled any more (``sim_events_cancelled`` and
``sim_queue_compactions`` read 0), and the watch's firings on settled
tickets are new events. ``counters`` before: campaign-false-accuser
9f7c5b9d…, campaign-frame 2c5aeb86…, campaign-storm cf1911b4…,
chaos-smoke 80158abe…, monolithic 5559194b…, parity b49e3c5b…,
protocol aa5c53c5…, topo-churn 2cd6ed8b…, topo-deviant 90b6c52f…; the
metrics digest 55a06817… (``events_processed`` 17,533 → 17,692). No
other digest moved.
And once more for the five cells on a lossless, faultless star, on the
commit that sent their segments direct, with no ACK packet, ticket or
hold-back queue: ``counters`` and ``counters_observable`` of
campaign-false-accuser (10fa397b… / 3c17de68… before; 294,206 → 147,992
events), campaign-frame (0c625006… / e5a2f8db…; 122,841 → 61,761),
monolithic (8bced9c1… / a4ffdb67…; 34,048 → 17,121), parity
(d115ec6a… / 844ca0c1…; 17,695 → 8,896) and protocol (81121a1e… /
4f0c0c4e…; 17,692 → 8,893), and the protocol workload's metrics digest
(c7e7af4c…; ``events_processed`` 17,692 → 8,893, ``net_packets_delivered``
8,640 → 4,320). The keys that moved are the engine tallies,
``net_packets_delivered`` and ``net_bytes_delivered`` (an ACK is no
packet) and ``transport_rtt_*`` (no ACK, no sample): no protocol
counter, delivered multiset, eviction, instant, report or campaign
metric moved, and the four cells that keep the ARQ moved nothing.
And once more for the two cells with an eviction, on the commit that
made an eviction notice a message: ``counters`` and
``counters_observable`` of campaign-storm (27f2de2b… / 56caec1e…
before) and campaign-frame (f9b65be2… / 254ab342…). Both evict inside
one group, so no notice is sent; the only change is the zero
``eviction_notices`` key, gone with the cost counter (re-adding it
reproduces the old digests).
And once more for topo-deviant's ``counters`` alone (f79e190d…
before), on the commit that sent a faultless star's segments direct
even where it can reorder, with a seqno and the hold-back: 138,144 →
61,950 events, ``net_packets_delivered`` 40,634 → 20,289, and the ARQ's
76 spurious retransmissions, 76 duplicates and RTT tallies gone. Its
delivered, evictions, report and metrics digests did not move, nor did
any other cell's.

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

from repro.orchestrator.workloads import WORKLOADS, WorkerContext
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
        dict(counters="c7b4268890cffb34", counters_observable="8b9015edeb7153a5",
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
        dict(counters="e0bbf1e45d4ba428", delivered="8923b5f77c4de573",
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
        dict(counters="32abe0ab6386ccc2", delivered="843b9b8d90f04c41",
             evictions="4f53cda18c2baa0c", report="87f034b5081c8283", metrics="c39834532700e944"),
        TOPO_KEYS,
    ),
    # run_campaign_cell(<these params>, 0) — the three below
    "campaign-storm": (
        lambda: campaign_cell(
            {"strategy": "silent-relay", "plan": "storm", "nodes": 10, "horizon": 12.0}, 0
        ),
        dict(counters="1fd4ee88b3ad5e29", counters_observable="4400f3c0bb06d0c7",
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
        dict(counters="a2b0f0bf338378e5", counters_observable="ee27280242269986",
             delivered="95e268b0279005e9", evictions="2a5b18661819f676",
             report="ba7da1ba77e63f6f", metrics="1b8fa5a86e22f3d9"),
        CAMPAIGN_KEYS,
    ),
    "campaign-false-accuser": (
        lambda: campaign_cell(
            {"strategy": "false-accuser", "plan": "none", "loss": 0.0, "nodes": 10, "horizon": 12.0},
            0,
        ),
        dict(counters="f4c1566d775392a7", counters_observable="83ff84ab383a7cc7",
             delivered="729f1341e5e5c605", evictions="4f53cda18c2baa0c",
             report="ba9345b86e439db4", metrics="e2046808a1851027"),
        CAMPAIGN_KEYS,
    ),
    # run_monolithic(ScaleSpec(nodes=32, num_shards=2, horizon=2.0))
    "monolithic": (
        lambda: run_cell(ScaleSpec(nodes=32, num_shards=2, horizon=2.0).scenario()),
        dict(counters="4146f7609f3482cb", counters_observable="bdbc0f4f94fdd6a3",
             delivered="ce573696f0f3b6a7", evictions="4f53cda18c2baa0c"),
        (),
    ),
    # run_sim_scenario(ParityScenario(nodes=6, duration=4.0))
    "parity": (
        lambda: run_cell(
            Scenario(nodes=6, horizon=4.0, regime="wall", traffic="ring", messages=2, tag="live")
        ),
        dict(counters="d62d23f3686fef58", counters_observable="a6a6df04b3b0f5df",
             delivered="bc7697545303f6cd", evictions="4f53cda18c2baa0c"),
        (),
    ),
    # protocol_run(PROTOCOL_PARAMS, 5, WorkerContext())
    "protocol": (
        lambda: run_cell(Scenario.from_params(PROTOCOL_PARAMS, 5, "protocol")),
        dict(counters="23691a0b6eea7bf9", counters_observable="f2b9f4b186de6832",
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
    metrics = WORKLOADS["protocol"](PROTOCOL_PARAMS, 5, WorkerContext())
    assert metrics_digest(metrics, PROTOCOL_KEYS) == "8624a03b519ae4c8"
