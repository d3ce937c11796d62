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

for a fixed-seed run of each key backend. The digests over the first
four were recorded against the seed implementation (pre-optimisation);
a change there means an optimisation altered observable behaviour and
is a bug, not a baseline to re-record casually. The event count moves
only when a change removes or adds events on purpose.
"""

from __future__ import annotations

import collections
import hashlib

from repro.core.config import RacConfig
from repro.core.messages import Broadcast
from repro.core.system import RacSystem
from repro.simnet.engine import Simulator
from repro.simnet.transport import SEQUENCED

# Everything observable (wire bytes, trace, deliveries): recorded from
# the seed (pre-optimisation) implementation and never moved since.
EXPECTED_SIM_OBSERVABLE = "d1e89f6293a36901f5b54abf55565251f59437b17a17736d505515d15ee6a099"
EXPECTED_DH_OBSERVABLE = "152ea5a04ae842234cd5c8b731185b9cf5da9f252b2ff15cb7d4d92254cfe0cd"
# The same plus the final clock and event count. Re-recorded four
# times, each time for the event count alone: when predecessor checks
# that find nothing stopped being events (the seed's values were
# e13a6c05... and 28466e14...), when the router -> downlink hop of an
# overtaking-free star stopped being one (3a4a6280... and e17c928e...
# before), when the ARQ's per-segment timers became tickets behind
# one watch entry, whose firings on settled tickets are new events
# (253beb41... and f0c7afc5... before), and when a lossless star's
# transport went direct, with no ACK packet and no ARQ timer
# (aad1b399... and c887bf69... before). The observable digests above
# were the same before and after all four.
EXPECTED_SIM = "409221bcb646f5782ef64dd2957cb356a0e383350586a8d7a4cf8602f2cfc615"
EXPECTED_DH = "832dc27dd4ec3c6129a553321a952f51ac8877c6bc9c58fb6d6bcc7aa2ea85e0"


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


def run_digests(backend: str, topology=None) -> "tuple[str, str]":
    """(digest of everything observable, the same plus clock and event count)."""
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
    observable = hasher.hexdigest()
    hasher.update(f"end|{system.now!r}|{system.sim.events_processed}".encode())
    return observable, hasher.hexdigest()


def run_fingerprint(backend: str, topology=None) -> str:
    return run_digests(backend, topology)[1]


def test_sim_backend_run_is_byte_identical_to_seed():
    assert run_digests("sim") == (EXPECTED_SIM_OBSERVABLE, EXPECTED_SIM)


def test_dh_backend_run_is_byte_identical_to_seed():
    assert run_digests("dh") == (EXPECTED_DH_OBSERVABLE, EXPECTED_DH)


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
# The WAN pin was re-recorded once (ab79437e... before), when a
# faultless star that can reorder took the direct path with seqnos and
# the hold-back: no ACK packet, ticket or watch, so 77,164 events fell
# to 34,676 (its 76 spurious retransmissions went too). Every node
# delivered the same payloads and nobody was evicted, before or after.
EXPECTED_ORDER_LOSSY = "3f7b2528b8523e2676ef81cccb32575e6a6623b219f1e35ca739bd584220308c"
EXPECTED_ORDER_WAN = "f226e21fd263e0aa6ca856b2bc5dffcbef3580748ae6535b88bb0949978c555f"
# The freerider scenario fires predecessor checks *with verdicts* (the
# two pins above never dispatch one that finds anything). Recorded on
# the commit before the owed-set monitor: the dispatch hash leaves out
# ``RacNode._check_predecessors`` events (the no-op ones are gone), the
# verdict hash is every ``_accuse`` call and eviction in order.
# The dispatch hash was re-recorded once (0830b2ef... before) when the
# overtaking-free star folded ``_enqueue_downlink`` into ``_at_router``:
# the hop is gone and ``_deliver`` draws its ``seq`` 50 us earlier. Its
# twin, recorded on the commit before that and unmoved by it, hashes
# ``(time, callback)`` without ``seq`` and without the hop, as two
# streams: every event but ``_at_router``, and every event but
# ``_deliver``. Each stream keeps its dispatch order; a ``_deliver`` and
# the ``_at_router`` of another packet that share one instant bit for
# bit are the only events the earlier ``seq`` can swap (4,648 such pairs
# among this run's 97,663 events), and they touch disjoint state — the
# verdict hash and every observable digest in this file are the proof.
# All three were re-recorded once since, when a lossless star's
# transport went direct (8ee1724c..., 7b8c942c... / 2842428f... and
# 4a009575... before): no ACK holds a downlink any more, so receive
# instants move by microseconds. The same two verdicts (accused, reason,
# message) came in the same order, each 16 us earlier; the same node
# was evicted by the same accuser, at 0.612505 s instead of 0.612146 s;
# every node delivered the same payloads.
EXPECTED_ORDER_FREERIDER = "e5f762bca097c2f03f296c3a01b397c9b7a1b3aca25b1ed60729249d0bcb6fcf"
EXPECTED_ORDER_FREERIDER_TIMES = (
    "d4363e3baaab8ccc9628d15711968bafc37ba18741936651b4eac96030b33904",
    "eb37ef538d025e27ae6612047a4d9752a3144da33cf269ebc099d7b4ec20203f",
)
EXPECTED_VERDICTS_FREERIDER = "bea4ba73c7f241b07c205f3c2af05f4bde83b31030a66960faed7f66dd6a0ad7"
# Events each pinned run fired while every transmission armed its own
# retransmit timer and every ACK cancelled it (recorded on the commit
# before retransmit tickets). The order hashes leave out exactly the
# ARQ firings that find their ticket settled, so a run's events less
# those firings must equal its count here. The freerider run is on a
# lossless star, so it has no ARQ since its transport went direct: its
# count is its events (97,764 less settled firings before). The WAN run
# has none either since a faultless star that can reorder went direct
# too (69,081 before).
TIMER_EVENTS = {"lossy": 222_592, "wan": 34_676, "freerider": 49_346, "storm": 204_547}


class _OrderRecordingSimulator(Simulator):
    """Folds every dispatched event into ``order_hash`` from inside the
    real ``run`` loop (``RacSystem`` instances are re-classed onto it).
    Callbacks named in ``order_skip`` fire but are left out of the hash.

    An ARQ entry that finds its ticket settled (acknowledged, or
    retransmitted under a later ticket) fires but is left out of every
    hash: it changes no state, and the per-segment timer it replaces
    was cancelled instead of firing. ``arq_firings`` counts the ARQ
    entries by what they found: ``settled`` ones (left out),
    ``superseded`` ones (a smaller ticket undercut them as the watch
    before they fired) and ``watch_retransmits`` (the watch fired on a
    live ticket and retransmitted)."""

    order_skip = ()
    #: ``times_hashes`` fold ``(time, callback)`` without ``seq`` and
    #: without the hop event an overtaking-free star folds into
    #: ``_at_router``: one stream leaves out ``_at_router``, the other
    #: ``_deliver`` (the two may swap within one instant, see below).
    times_skip = ("StarNetwork._enqueue_downlink",)
    times_streams = ("StarNetwork._at_router", "StarNetwork._deliver")

    def step(self, until=None):
        self.peek_time()  # shed dead heads: the head is now the next live event
        # entries are read by index: a hop is a plain list
        head = self._queue[0] if self._queue else None
        name = head[2].__qualname__ if head is not None else None
        arq = name == "ReliableTransport._on_timeout"
        if arq:
            transport = head[2].__self__
            watch = head[3][0] == transport._watch  # args: (ticket, pair, seqno)
            live = transport._live(*head[3])
            retransmits = transport.retransmits
        fired = super().step(until)
        if fired and arq:
            if not watch:
                self.arq_firings["superseded"] += 1
            if not live:
                self.arq_firings["settled"] += 1
                return fired
            if watch and transport.retransmits > retransmits:
                self.arq_firings["watch_retransmits"] += 1
        if fired and name not in self.order_skip:
            self.order_hash.update(f"{head[0]!r}|{head[1]}|{name}|".encode())
            if name not in self.times_skip:
                for left_out, stream in zip(self.times_streams, self.times_hashes):
                    if name != left_out:
                        stream.update(f"{head[0]!r}|{name}|".encode())
        return fired

    def events_without_settled_arq(self) -> int:
        """Events fired, less the settled ARQ firings the hashes leave out:
        the count a per-segment timer that was cancelled on every ACK fired."""
        return self.events_processed - self.arq_firings["settled"]


def _order_recording_system(config: RacConfig, seed: int, topology=None) -> RacSystem:
    system = RacSystem(config, seed=seed, topology=topology)
    system.sim.__class__ = _OrderRecordingSimulator
    system.sim.order_hash = hashlib.sha256()
    system.sim.times_hashes = (hashlib.sha256(), hashlib.sha256())
    system.sim.arq_firings = collections.Counter()
    return system


def _ring_traffic(system: RacSystem, nodes, tag: str) -> None:
    for index, src in enumerate(nodes):
        system.send(src, nodes[(index + 5) % len(nodes)], f"{tag}/{index}".encode())


def lossy_event_order():
    """12 nodes, 2 % loss, propagation jitter, one crash-restart."""
    from repro.chaos.plan import FaultPlan
    from repro.core.config import timer_regime

    config = timer_regime("heal", link_loss_rate=0.02, propagation_jitter=200e-6)
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
    from repro.core.config import WAN_ARQ, timer_regime

    config = timer_regime("detect", **WAN_ARQ)
    system = _order_recording_system(config, seed=31, topology=wan_king(8, seed=31))
    nodes = system.bootstrap(8)
    system.run(0.5)
    _ring_traffic(system, nodes, "order-wan")
    system.run(2.5)
    return system


def freerider_event_order():
    """12 nodes, ``predecessor_timeout`` 0.3 s, one planted
    ``ForwardDropper``: predecessor checks fire *with verdicts*, the
    dropper's eviction re-stitches the rings (fresh edges get their
    grace) and a later join catches copies in flight (the missing pair
    is excused at verdict time). Returns the system and the hash of every verdict
    handed to ``RacNode._accuse`` plus every eviction."""
    from unittest import mock

    from repro.core.node import RacNode
    from repro.freeride.strategies import ForwardDropper

    verdicts = hashlib.sha256()
    accuse = RacNode._accuse

    def recording_accuse(node, accused, domain, reason, msg_id):
        verdicts.update(
            f"{node.env.now!r}|{node.node_id}|{accused}|{reason}|{msg_id}|".encode()
        )
        accuse(node, accused, domain, reason, msg_id)

    config = RacConfig.small(predecessor_timeout=0.3, link_bandwidth_bps=20e6)
    system = _order_recording_system(config, seed=53)
    # The no-op checks are what the owed-set monitor removes; every
    # other event, and every verdict, must stay where it was.
    system.sim.order_skip = ("RacNode._check_predecessors",)
    with mock.patch.object(RacNode, "_accuse", recording_accuse):
        nodes = system.bootstrap(12, behaviors={5: ForwardDropper(1.0)})
        system.run(0.5)
        _ring_traffic(system, nodes, "order-freerider")
        system.run(1.0)
        system.join()  # copies in flight across the new edges: verdict-time excusal
        system.run(1.5)
    for accused, info in system.evicted.items():
        verdicts.update(f"evicted|{info['at']!r}|{accused}|{info['by']}|{info['kind']}|".encode())
    return system, nodes, verdicts.hexdigest()


def test_lossy_crash_restart_event_order_is_pinned():
    system = lossy_event_order()
    report = system.stats_report()
    # the run must actually walk the paths the pin is there to guard
    assert report["transport_retransmits"] > 0
    assert report["net_dropped_loss"] > 0 and report["net_dropped_outage"] > 0
    # ... and the ARQ's: retransmissions the watch fired, a watch that
    # found its ticket settled, and an undercut arm (an entry no longer
    # the watch when it fired: a smaller ticket was armed past it)
    firings = system.sim.arq_firings
    assert firings["watch_retransmits"] > 0 and firings["settled"] > 0
    assert firings["superseded"] > 0
    assert not system.evicted
    assert system.sim.order_hash.hexdigest() == EXPECTED_ORDER_LOSSY
    assert system.sim.events_without_settled_arq() == TIMER_EVENTS["lossy"]


def test_wan_king_event_order_is_pinned():
    system = wan_event_order()
    assert any(key.startswith("net_pair_delayed_") for key in system.stats_report())
    assert system.transport.direct == SEQUENCED and system.sim.arq_firings == {}
    assert system.sim.order_hash.hexdigest() == EXPECTED_ORDER_WAN
    assert system.sim.events_without_settled_arq() == TIMER_EVENTS["wan"]


def test_freerider_verdicts_and_event_order_are_pinned():
    system, nodes, verdicts = freerider_event_order()
    report = system.stats_report()
    assert system.transport.direct and system.sim.arq_firings == {}
    # the run must actually walk the verdict path and both excusals
    assert report["accusation_missing-copy"] == 2
    assert report["missing_copy_excused_topology"] == 5
    assert list(system.evicted) == [nodes[5]]
    evicted_at = system.evicted[nodes[5]]["at"]
    assert any(
        since >= evicted_at
        for node in system.nodes.values()
        for edges in node._ring_edges.values()
        for _pred, since in edges.values()
    ), "no ring edge was re-stitched: the edge-grace excusal never ran"
    assert tuple(h.hexdigest() for h in system.sim.times_hashes) == EXPECTED_ORDER_FREERIDER_TIMES
    assert system.sim.order_hash.hexdigest() == EXPECTED_ORDER_FREERIDER
    assert verdicts == EXPECTED_VERDICTS_FREERIDER
    assert system.sim.events_without_settled_arq() == TIMER_EVENTS["freerider"]


# ---------------------------------------------------------------------------
# a storm: the fault plan's window edges, walked with traffic in flight
# ---------------------------------------------------------------------------
#: Re-recorded when the zero ``eviction_notices`` counter went with the
#: notice cost counter (5e6799d7… before); the times hashes did not move.
EXPECTED_STORM_OBSERVABLE = "25a7e5b23593cccde3343ccebebdc00b91638a69f00e252e012e58a3a698baac"
EXPECTED_STORM_TIMES = (
    "7953e48ef79234dc2f05af830cc885f4261fee34f33284adbeeefb8cadb15859",
    "a78cb0790d014b80991409dadcb35dc4f44e77514189cc8429c9a1b46bfed2b8",
)
# The digest and the two ``(time, callback)`` streams were recorded on
# the commit before fault-plan edges stopped switching the folded hop
# off for the whole run, and did not move; the event count was 294,758
# there (every packet on the three-event hop from t = 0). It was
# re-recorded once more, 204,547 -> 204,713, when retransmit timers
# became tickets: the 166 new events are watch firings on settled
# tickets (see ``TIMER_EVENTS``).
EXPECTED_STORM_EVENTS = 204_713


def storm_event_order():
    """16 nodes, 2 % loss, the canned ``storm`` plan for seed 11 (a
    crash-restart, two partitions, a loss window and two degradations)
    and one planted silent relay. Returns the system, the relay and the
    digest of everything observable: every counter that is not an engine
    tally, every delivery with its instant, every eviction."""
    from repro.chaos.plan import storm_plan
    from repro.core.config import timer_regime
    from repro.freeride.registry import make_behavior
    from tests.integration.test_scenario_equivalence import ENGINE_TALLIES

    # a 0.15 s slot: a third of the cover traffic, a third of the events
    config = timer_regime("detect", link_loss_rate=0.02, send_interval=0.15)
    system = _order_recording_system(config, seed=11)
    nodes = system.bootstrap(16, behaviors={9: make_behavior("silent-relay", seed=11)})
    storm_plan(16, 12.0, seed=11).compile_sim(system, nodes)
    system.run(0.5)
    for burst in range(16):
        # an application stops talking to, and as, an evicted node
        _ring_traffic(system, [n for n in nodes if n not in system.evicted], f"storm-{burst}")
        system.run(0.5)
    system.run(0.5)  # t = 9.0: the last window closed at 8.52
    observable = hashlib.sha256()
    for key, value in sorted(system.stats_report().items()):
        if key not in ENGINE_TALLIES:
            observable.update(f"c|{key}|{value!r}|".encode())
    for node_id in sorted(system.nodes):
        node = system.nodes[node_id]
        for when, payload in zip(node.delivered_at, node.delivered):
            observable.update(f"d|{node_id}|{when!r}|".encode() + payload)
    for accused, info in system.evicted.items():
        observable.update(f"e|{info['at']!r}|{accused}|{info['by']}|{info['kind']}|".encode())
    return system, nodes[9], observable.hexdigest()


def test_storm_plan_run_is_pinned():
    system, relay, observable = storm_event_order()
    report = system.stats_report()
    # the run must walk every kind of window edge, under load
    assert report["net_dropped_loss"] > 0 and report["net_dropped_outage"] > 0
    assert report["net_dropped_partition"] > 0 and report["transport_retransmits"] > 0
    assert {accused: info["at"] for accused, info in system.evicted.items()} == {relay: 6.0}
    assert observable == EXPECTED_STORM_OBSERVABLE
    assert tuple(h.hexdigest() for h in system.sim.times_hashes) == EXPECTED_STORM_TIMES
    assert system.sim.events_processed == EXPECTED_STORM_EVENTS
    assert system.sim.events_without_settled_arq() == TIMER_EVENTS["storm"]
