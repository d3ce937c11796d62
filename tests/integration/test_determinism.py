"""Fixed-seed determinism pins for the performance layer.

The crypto and hot-path optimisations (bulk keystream, cached key
derivations, fixed- and shared-base exponentiation, peel dedup, calendar
compaction) must not change a single wire byte or reorder a single
event. These tests pin a SHA-256 fingerprint over

* every ``Broadcast`` wire blob, in unicast order,
* every control-plane payload,
* the full protocol trace (time, kind, node, detail),
* every node's delivered payloads, and
* the final clock / event count,

for a fixed-seed run of each key backend. The expected digests were
recorded against the seed implementation (pre-optimisation); a digest
change means an optimisation altered observable behaviour and is a bug,
not a baseline to re-record casually.
"""

from __future__ import annotations

import hashlib

from repro.core.config import RacConfig
from repro.core.messages import Broadcast
from repro.core.system import RacSystem
from repro.simnet.engine import Simulator

# Digests recorded from the seed (pre-optimisation) implementation.
EXPECTED_SIM = "e13a6c058436f290cbefba26394a859a2d735cf58e527caa51ff6eafaf30823b"
EXPECTED_DH = "28466e14f00a16163af150e081ebe9a0764b00a39136740b19df71fb08d6192a"


class _RecordingSystem(RacSystem):
    """RacSystem that folds every unicast payload into a running hash."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hasher = hashlib.sha256()

    def unicast(self, src, dst, payload, size_bytes):
        self.hasher.update(f"u|{src}|{dst}|{size_bytes}|".encode())
        if isinstance(payload, Broadcast):
            self.hasher.update(
                f"b|{payload.domain!r}|{payload.msg_id}|{payload.ring_index}|".encode()
            )
            self.hasher.update(payload.wire)
        else:
            self.hasher.update(repr(payload).encode())
        super().unicast(src, dst, payload, size_bytes)


def run_fingerprint(backend: str, topology=None) -> str:
    config = RacConfig.small(trace=True, key_backend=backend)
    system = _RecordingSystem(config, seed=1234, topology=topology)
    count = 10 if backend == "sim" else 6
    nodes = system.bootstrap(count)
    system.run(1.0)
    system.send(nodes[0], nodes[count // 2], b"determinism ping")
    system.send(nodes[1], nodes[count - 1], b"determinism pong")
    system.run(4.0)

    hasher = system.hasher
    for event in system.tracer:
        hasher.update(
            f"t|{event.time!r}|{event.kind}|{event.node}|{sorted(event.detail.items())!r}|".encode()
        )
    for node_id in sorted(system.nodes):
        for payload in system.nodes[node_id].delivered:
            hasher.update(f"d|{node_id}|".encode())
            hasher.update(payload)
    hasher.update(f"end|{system.now!r}|{system.sim.events_processed}".encode())
    return hasher.hexdigest()


def test_sim_backend_run_is_byte_identical_to_seed():
    assert run_fingerprint("sim") == EXPECTED_SIM


def test_dh_backend_run_is_byte_identical_to_seed():
    assert run_fingerprint("dh") == EXPECTED_DH


def test_fingerprint_is_stable_across_runs():
    assert run_fingerprint("sim") == run_fingerprint("sim")


def test_lan_topology_preset_is_byte_identical_to_bare_star():
    """The ``lan`` preset (zero delays, inherited bandwidth) must not
    move a single wire byte or event relative to running with no
    topology at all — the pinned seed digest doubles as the gate."""
    from repro.topo.model import lan

    assert run_fingerprint("sim", topology=lan(10)) == EXPECTED_SIM


# ---------------------------------------------------------------------------
# snapshot/restore determinism (the checkpoint-resume correctness core)
# ---------------------------------------------------------------------------


def _traffic_system(seed: int = 4242) -> RacSystem:
    system = RacSystem(RacConfig.small(), seed=seed)
    nodes = system.bootstrap(8)
    for index, src in enumerate(nodes):
        system.send(src, nodes[(index + 1) % len(nodes)], f"det/{index}".encode())
    return system


def _run_summary(system: RacSystem) -> bytes:
    """Byte-level digest of everything a resumed run could get wrong."""
    hasher = hashlib.sha256()
    hasher.update(repr(sorted(system.stats_report().items())).encode())
    for node_id in sorted(system.nodes):
        for payload in system.nodes[node_id].delivered:
            hasher.update(f"d|{node_id}|".encode())
            hasher.update(payload)
    hasher.update(f"end|{system.now!r}|{system.sim.events_processed}".encode())
    return hasher.digest()


def _restored_summary_in_child(blob: bytes, remaining: float, queue) -> None:
    # Module-level so multiprocessing can import it in a fresh process.
    from repro.simnet.snapshot import restore_system

    system = restore_system(blob)
    system.run(remaining)
    queue.put(_run_summary(system))


def test_snapshot_restore_replays_byte_identically():
    """Snapshot mid-run, restore (same and fresh process), continue:
    stats report, deliveries, clock and event count must byte-match an
    uninterrupted run — and snapshotting must not perturb the donor."""
    import multiprocessing

    from repro.simnet.snapshot import restore_system, snapshot_system

    uninterrupted = _traffic_system()
    uninterrupted.run(4.0)
    expected = _run_summary(uninterrupted)

    donor = _traffic_system()
    donor.run(1.5)
    blob = snapshot_system(donor, verify=True)

    # The donor, continued after being snapshotted, is unperturbed.
    donor.run(2.5)
    assert _run_summary(donor) == expected

    # Same-process restore replays identically.
    restored = restore_system(blob)
    restored.run(2.5)
    assert _run_summary(restored) == expected

    # Fresh-process restore (what a resumed sweep worker actually does).
    context = multiprocessing.get_context()
    queue = context.Queue()
    child = context.Process(target=_restored_summary_in_child, args=(blob, 2.5, queue))
    child.start()
    child_summary = queue.get(timeout=120)
    child.join(timeout=30)
    assert child.exitcode == 0
    assert child_summary == expected


# ---------------------------------------------------------------------------
# event *order* pins
# ---------------------------------------------------------------------------
#
# EXPECTED_SIM/EXPECTED_DH hash the final clock and the event *count*;
# these hash the dispatch sequence itself — (time, seq, callback) of
# every fired event — so an engine or data-path rewrite that merges,
# drops, re-times or re-numbers a single event fails here even when the
# totals still agree. Recorded on the commit before the list-backed
# event record replaced the dataclass + wrapper tuple.
EXPECTED_ORDER_LOSSY = "3f7b2528b8523e2676ef81cccb32575e6a6623b219f1e35ca739bd584220308c"
EXPECTED_ORDER_WAN = "ab79437ee3b92e50fc15d688e56bd3520820f3ae31780848e7e2dce30a251af2"


class _OrderRecordingSimulator(Simulator):
    """Folds every dispatched event into ``order_hash`` from inside the
    real ``run`` loop (``RacSystem`` instances are re-classed onto it)."""

    def step(self, until=None):
        self.peek_time()  # shed dead heads: the head is now the next live event
        head = self._queue[0] if self._queue else None
        fired = super().step(until)
        if fired:
            self.order_hash.update(
                f"{head.time!r}|{head.seq}|{head.callback.__qualname__}|".encode()
            )
        return fired


def _order_recording_system(config: RacConfig, seed: int, topology=None) -> RacSystem:
    system = RacSystem(config, seed=seed, topology=topology)
    system.sim.__class__ = _OrderRecordingSimulator
    system.sim.order_hash = hashlib.sha256()
    return system


def _ring_traffic(system: RacSystem, nodes, tag: str) -> None:
    for index, src in enumerate(nodes):
        system.send(src, nodes[(index + 5) % len(nodes)], f"{tag}/{index}".encode())


def lossy_event_order():
    """12 nodes, 2 % loss, propagation jitter, one crash-restart."""
    from repro.chaos.plan import FaultPlan
    from repro.chaos.run import chaos_sim_config

    config = chaos_sim_config(link_loss_rate=0.02, propagation_jitter=200e-6)
    system = _order_recording_system(config, seed=97)
    nodes = system.bootstrap(12)
    FaultPlan(seed=97, horizon=4.0).crash_restart(4, at=1.0, downtime=0.6).compile_sim(system, nodes)
    system.run(0.8)
    _ring_traffic(system, nodes, "order-a")
    system.run(1.2)
    _ring_traffic(system, nodes, "order-b")
    system.run(2.0)
    return system


def wan_event_order():
    """8 nodes on the ``wan-king`` preset (per-pair router delays)."""
    from repro.topo.model import wan_king
    from repro.topo.run import topo_sim_config

    system = _order_recording_system(topo_sim_config(), seed=31, topology=wan_king(8, seed=31))
    nodes = system.bootstrap(8)
    system.run(0.5)
    _ring_traffic(system, nodes, "order-wan")
    system.run(2.5)
    return system


def test_lossy_crash_restart_event_order_is_pinned():
    system = lossy_event_order()
    report = system.stats_report()
    # the run must actually walk the paths the pin is there to guard
    assert report["transport_retransmits"] > 0
    assert report["net_dropped_loss"] > 0 and report["net_dropped_outage"] > 0
    assert report["sim_events_cancelled"] > 0 and report["sim_queue_compactions"] > 0
    assert not system.evicted
    assert system.sim.order_hash.hexdigest() == EXPECTED_ORDER_LOSSY


def test_wan_king_event_order_is_pinned():
    system = wan_event_order()
    assert any(key.startswith("net_pair_delayed_") for key in system.stats_report())
    assert system.sim.order_hash.hexdigest() == EXPECTED_ORDER_WAN
