"""Integration tests: the global passive opponent measures nothing.

The empirical counterpart of Table I: a tap on every link, full
traffic logs, and attribution at chance level.
"""

import pytest

from repro.analysis.observer import GlobalObserver
from repro.campaign.scoring import prepare_campaign_cell, run_campaign_cell
from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.scenario import Scenario
from repro.simnet.snapshot import load_snapshot, save_snapshot


@pytest.fixture(scope="module")
def observed_run():
    config = RacConfig(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.05,
        relay_timeout=1.5,
        predecessor_timeout=0.6,
        rate_window=1.2,
        blacklist_period=0.0,
        puzzle_bits=2,
    )
    system = RacSystem(config, seed=31)
    nodes = system.bootstrap(12)
    observer = GlobalObserver(system, rng_seed=5)
    observer.attach()
    system.run(1.5)
    flows = []
    for i in range(8):
        src, dst = nodes[i % len(nodes)], nodes[(i + 5) % len(nodes)]
        if src != dst and system.send(src, dst, b"secret-%d" % i):
            flows.append((src, dst))
    system.run(6.0)
    return system, observer, nodes, flows


class TestObservability:
    def test_observer_sees_all_the_traffic(self, observed_run):
        _system, observer, nodes, _flows = observed_run
        assert observer.traffic_volume() > 1000
        assert len(observer.observed_message_ids()) > 100

    def test_rate_uniformity_under_noise(self, observed_run):
        # Constant-rate sending makes every node look alike: no node
        # transmits much more than the mean.
        _system, observer, _nodes, _flows = observed_run
        assert observer.rate_uniformity() < 1.5

    def test_every_node_transmits(self, observed_run):
        _system, observer, nodes, _flows = observed_run
        counts = observer.transmission_counts()
        for node in nodes:
            assert counts.get(node, 0) > 0


class TestAttribution:
    def test_sender_attribution_is_chance_level(self, observed_run):
        system, observer, nodes, flows = observed_run
        # Sample real (msg, sender) pairs from the tracer-free ground
        # truth: use each flow's sender with an arbitrary observed id.
        samples = [(observer.observed_message_ids()[i], src) for i, (src, _dst) in enumerate(flows)]
        accuracy = observer.sender_attribution_accuracy(samples)
        # Chance level is 1/12; with 8 samples allow generous slack but
        # rule out anything resembling real attribution power.
        assert accuracy <= 0.5

    def test_anonymity_set_is_the_group(self, observed_run):
        system, observer, nodes, flows = observed_run
        src = flows[0][0]
        result = observer.attribute_sender(observer.observed_message_ids()[0], src)
        assert result.anonymity_set_size == len(nodes)

    def test_entropy_matches_group_size(self, observed_run):
        import math

        system, observer, nodes, flows = observed_run
        bits = observer.anonymity_entropy_bits(observer.observed_message_ids()[0], flows[0][0])
        assert bits == pytest.approx(math.log2(len(nodes)))

    def test_receiver_candidates_cover_group(self, observed_run):
        system, observer, nodes, flows = observed_run
        result = observer.attribute_receiver(observer.observed_message_ids()[0], flows[0][1])
        assert set(nodes) <= set(result.candidates)

    def test_double_attach_rejected(self, observed_run):
        system, observer, _nodes, _flows = observed_run
        with pytest.raises(RuntimeError):
            observer.attach()


class TestSnapshot:
    """The tap is a method of the observer, so a tapped run snapshots:
    a campaign cell checkpoints mid-run like any other sweep cell."""

    def test_a_tapped_system_round_trips(self, observed_run, tmp_path):
        system, observer, _nodes, _flows = observed_run
        path = str(tmp_path / "tapped.snap")
        save_snapshot((system, observer), path, verify=True)
        restored, copy = load_snapshot(path)
        assert copy.system is restored and restored.unicast == copy.tap
        assert copy.log == observer.log

    def test_a_campaign_cell_resumed_from_a_snapshot_scores_like_the_whole_run(self, tmp_path):
        params = {"strategy": "forward-dropper", "plan": "smoke", "nodes": 8, "horizon": 10.0}
        run = prepare_campaign_cell(Scenario.from_params(params, 0, "campaign"), params)
        run.run_to(6.0)
        path = str(tmp_path / "cell.snap")
        save_snapshot(run, path, verify=True)
        resumed = load_snapshot(path)
        resumed.run_to(params["horizon"])
        assert resumed.outcome().metrics() == run_campaign_cell(params, 0).metrics()
