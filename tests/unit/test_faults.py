"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.network import StarNetwork


def make(seed=0, loss_rate=0.0):
    sim = Simulator()
    faults = FaultInjector(sim, seed=seed, loss_rate=loss_rate)
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=faults)
    return sim, faults, net


class TestLossConfig:
    def test_default_rate_applies_to_every_link(self):
        _sim, faults, _net = make(loss_rate=0.25)
        assert faults.loss_rate(7, "up") == 0.25
        assert faults.loss_rate(99, "down") == 0.25

    def test_per_link_override(self):
        _sim, faults, _net = make(loss_rate=0.1)
        faults.set_loss_rate(0.9, node_id=3, direction="down")
        assert faults.loss_rate(3, "down") == 0.9
        assert faults.loss_rate(3, "up") == 0.1
        assert faults.loss_rate(4, "down") == 0.1

    def test_invalid_rate_rejected(self):
        _sim, faults, _net = make()
        with pytest.raises(ValueError):
            faults.set_loss_rate(1.0)
        with pytest.raises(ValueError):
            faults.set_loss_rate(-0.1)

    def test_invalid_direction_rejected(self):
        _sim, faults, _net = make()
        with pytest.raises(ValueError):
            faults.set_loss_rate(0.5, node_id=1, direction="sideways")

    def test_zero_loss_never_draws_rng(self):
        # Lossless runs must stay byte-identical to the pre-fault era:
        # the verdict path may not consume RNG state.
        sim, faults, net = make()
        state = faults.rng.getstate()
        net.attach(1, lambda p: None)
        net.attach(2, lambda p: None)
        for _ in range(10):
            net.send(1, 2, "x", 10)
        sim.run()
        assert faults.rng.getstate() == state
        assert net.packets_dropped == 0


class TestDeterminism:
    def run_once(self, seed):
        sim, _faults, net = make(seed=seed, loss_rate=0.3)
        trace = []
        net.attach(1, lambda p: trace.append((sim.now, p.payload)))
        net.attach(2, lambda p: None)
        for i in range(40):
            net.send(2, 1, i, 25)
        sim.run()
        return trace, net.packets_dropped

    def test_same_seed_same_drops(self):
        assert self.run_once(42) == self.run_once(42)

    def test_different_seed_different_drops(self):
        assert self.run_once(1) != self.run_once(2)


class TestOutages:
    def test_uplink_outage_blackholes_window(self):
        sim, faults, net = make()
        got = []
        net.attach(1, lambda p: got.append(p.payload))
        net.attach(2, lambda p: None)
        faults.schedule_outage(2, at=0.0, duration=1.0, direction="up")
        net.send(2, 1, "during", 10)
        sim.run(until=2.0)
        net.send(2, 1, "after", 10)
        sim.run()
        assert got == ["after"]
        assert net.drops_by_reason["outage"] == 1

    def test_downlink_outage_direction_is_respected(self):
        sim, faults, net = make()
        got = []
        net.attach(1, lambda p: got.append(p.payload))
        net.attach(2, lambda p: got.append(p.payload))
        faults.schedule_outage(1, at=0.0, duration=1.0, direction="down")
        net.send(2, 1, "to-1-dropped", 10)  # 1's downlink is out
        net.send(1, 2, "to-2-fine", 10)  # 1's uplink is fine
        sim.run()
        assert got == ["to-2-fine"]

    def test_invalid_duration_rejected(self):
        _sim, faults, _net = make()
        with pytest.raises(ValueError):
            faults.schedule_outage(1, at=0.0, duration=0.0)


class TestPartitions:
    def test_cross_partition_traffic_dropped_both_ways(self):
        sim, faults, net = make()
        got = []
        for n in (1, 2, 3, 4):
            net.attach(n, lambda p: got.append((p.src, p.dst)))
        faults.schedule_partition({1, 2}, {3, 4}, at=0.0, duration=5.0)
        net.send(1, 3, "x", 10)  # cross: dropped
        net.send(4, 2, "x", 10)  # cross: dropped
        net.send(1, 2, "x", 10)  # same side: delivered
        net.send(3, 4, "x", 10)  # same side: delivered
        sim.run()
        assert sorted(got) == [(1, 2), (3, 4)]
        assert net.drops_by_reason["partition"] == 2

    def test_partition_heals_after_window(self):
        sim, faults, net = make()
        got = []
        net.attach(1, lambda p: got.append(p.payload))
        net.attach(2, lambda p: None)
        faults.schedule_partition({1}, {2}, at=0.0, duration=0.5)
        sim.run(until=1.0)
        net.send(2, 1, "healed", 10)
        sim.run()
        assert got == ["healed"]

    def test_overlapping_sides_rejected(self):
        _sim, faults, _net = make()
        with pytest.raises(ValueError):
            faults.schedule_partition({1, 2}, {2, 3}, at=0.0, duration=1.0)


class TestDegradation:
    def test_factor_restored_after_window(self):
        sim, faults, net = make()
        net.attach(1, lambda p: None)
        faults.schedule_degradation(1, at=1.0, duration=2.0, factor=0.25)
        sim.run(until=2.0)
        assert net.uplinks[1].rate_factor == pytest.approx(0.25)
        assert net.downlinks[1].rate_factor == pytest.approx(0.25)
        sim.run(until=4.0)
        assert net.uplinks[1].rate_factor == pytest.approx(1.0)
        assert net.downlinks[1].rate_factor == pytest.approx(1.0)

    def test_link_recreated_inside_the_window_keeps_its_full_rate(self):
        # The closing edge restores the Link objects the opening edge
        # scaled; multiplying whatever link is there by 1/factor left a
        # rebooted node on a 2x link for the rest of the run.
        sim, faults, net = make()
        net.attach(1, lambda p: None)
        faults.schedule_degradation(1, at=1.0, duration=2.0, factor=0.5)
        sim.run(until=2.0)
        net.detach(1)
        sim.run(until=2.5)
        net.attach(1, lambda p: None)
        assert net.uplinks[1].rate_factor == net.downlinks[1].rate_factor == 1.0
        sim.run(until=4.0)
        assert net.uplinks[1].rate_factor == net.downlinks[1].rate_factor == 1.0

    def test_node_attached_after_the_opening_edge_keeps_its_full_rate(self):
        sim, faults, net = make()
        faults.schedule_degradation(1, at=1.0, duration=2.0, factor=0.5)
        faults.schedule_degradation(2, at=1.0, duration=2.0, factor=0.5, direction="down")
        net.attach(2, lambda p: None)
        sim.run(until=2.0)
        net.attach(1, lambda p: None)
        sim.run(until=4.0)
        assert net.uplinks[1].rate_factor == net.downlinks[1].rate_factor == 1.0
        # the link that lived through its window: scaled and scaled back
        assert (net.uplinks[2].rate_factor, net.downlinks[2].rate_factor) == (1.0, 1.0)

    def test_invalid_factor_rejected(self):
        _sim, faults, _net = make()
        with pytest.raises(ValueError):
            faults.schedule_degradation(1, at=0.0, duration=1.0, factor=0.0)
        with pytest.raises(ValueError):
            faults.schedule_degradation(1, at=0.0, duration=1.0, factor=1.5)

    def test_past_window_rejected(self):
        sim, faults, _net = make()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            faults.schedule_degradation(1, at=1.0, duration=1.0, factor=0.5)
