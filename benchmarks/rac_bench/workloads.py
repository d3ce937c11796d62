"""The five benchmark workloads.

Each workload is a function ``run(bench, seed, scale) -> Result``: it
generates its inputs (the scenario from ``SCENARIO_SEED``, payloads and
send-time nudges from ``seed``), sets the system up (``bench.setup`` times
every repetition), drives the measured window (``bench.window``), drains,
and checks the program's outputs. ``scale`` is ``--seconds / RUN_SECONDS``;
it stretches the amount of *work* (simulated seconds, wall seconds on
live), never the rate, so the same seed and the same ``--seconds`` replay
the same inputs and — on the simulator — the same counts and simulated
latencies bit for bit.

Every configuration value the program sees is written out below; no
``*_config()`` helper of the program is used.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import adapter
from measure import percentile

__all__ = ["RUN_SECONDS", "Bench", "Result", "WORKLOADS", "WHY"]

#: ``run_seconds`` of BENCHMARK.json: the ``--seconds`` at which the sizes
#: below apply unscaled.
RUN_SECONDS = 10

GBPS = 1_000_000_000

#: The population (identities, keys, ring positions) and the storm's fault
#: plan are part of a workload's definition, not of its input. Who sits
#: next to whom on the rings moves the delivery percentiles by 10-25%
#: from one population to the next, and which nodes crash when moves the
#: storm's median by a factor of two; a comparison of runs on different
#: seeds would be measuring the draw. ``--seed`` nudges every send by up
#: to a microsecond and fills the payloads. A ``ScaleSpec`` has one seed for
#: population and traffic, so on ``sharded-serial-256`` that seed is fixed
#: too and ``--seed`` draws the network's per-packet propagation jitter.
SCENARIO_SEED = 16


def rac_config(**overrides) -> "adapter.RacConfig":
    """A complete ``RacConfig``: the downsized test shape (2 relays, 3
    rings, 2 kB messages, 50 ms slots, one group) with every field
    stated. Workloads override what they vary."""
    values = dict(
        num_relays=2,
        num_rings=3,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.05,
        send_queue_limit=1024,
        adaptive_backlog_limit=None,
        saturation_margin=1.25,
        key_backend="sim",
        puzzle_bits=2,
        relay_timeout=1.0,
        predecessor_timeout=0.5,
        rate_window=1.0,
        rate_max_per_window=64,
        blacklist_period=2.0,
        max_send_retries=5,
        # Relays are usable 2 * join_settle_time after bootstrap; the
        # default 0.5 s would defer every send of the first simulated
        # second and make the warm-up cost seven host seconds on flood.
        join_settle_time=0.05,
        full_shuffle_max=48,
        assumed_opponent_fraction=0.1,
        link_bandwidth_bps=GBPS,
        propagation_jitter=0.0,
        link_loss_rate=0.0,
        transport_rto_initial=0.05,
        transport_rto_min=0.01,
        transport_rto_max=2.0,
        transport_max_retries=8,
        trace=False,
        wire_check=False,
        state_gc_ticks=200,
    )
    unknown = set(overrides) - set(values)
    if unknown:
        raise TypeError(f"not RacConfig fields: {sorted(unknown)}")
    values.update(overrides)
    return adapter.RacConfig(**values)


# ---------------------------------------------------------------------------
# what a run hands back, and how it is timed
# ---------------------------------------------------------------------------
@dataclass
class Result:
    """What one pass over a workload produced."""

    attempted: int
    failed: int
    #: Failed output checks, in words; empty means the outputs are correct.
    problems: "List[str]"
    #: Send-to-deliver time of every delivered operation, in protocol
    #: seconds (simulated on sim and sharded, wall on live).
    latencies_s: "List[float]"
    #: Protocol seconds the measured window covers.
    protocol_seconds: float
    #: The program's own counters over the window.
    counters: "Dict[str, float]" = field(default_factory=dict)
    #: Which clock the traced ledger is compared against: "wall" where
    #: the process is busy for the whole window, "cpu" on live, where it
    #: mostly sleeps between slots.
    busy_clock: str = "wall"
    #: Per-layer values only the workload can know.
    extras: "Dict[str, float]" = field(default_factory=dict)
    notes: "List[str]" = field(default_factory=list)


class Bench:
    """Times one pass: setup repetitions and the measured window.

    With a :class:`hostclock.HostClock` every interval is reported both
    as measured and corrected for host slowdown; without one (the passes
    of a traced run) only measured wall time is kept. With a
    :class:`spans.SpanRecorder` the ledger is zeroed when the window
    opens and frozen when it closes.
    """

    def __init__(self, origin: float, clock=None, recorder=None, setup_reps: int = 1, extras: bool = False):
        self.origin = origin
        self.clock = clock
        self.recorder = recorder
        self.setup_reps = setup_reps
        #: Whether the workload should compute its informational
        #: per-layer extras (bare engine rate, the live slot-rate ladder).
        self.want_extras = extras
        self.setups: "List[Tuple[float, float]]" = []
        #: The measured window, in one piece or (live) one per cluster life.
        self.windows: "List[Tuple[float, float]]" = []
        self.ledger = None
        self.outer_s = 0.0
        self._cpu_at: "Dict[float, float]" = {}

    def mark(self, closing: bool = False) -> float:
        """A wall-clock stamp that opens (or, with ``closing``, closes) an
        interval; with a host clock, one that has a slowdown sample
        sitting exactly on it, outside the interval."""
        if self.clock is not None:
            before, after = self.clock.sample()
            return before if closing else after
        stamp = time.perf_counter()
        self._cpu_at[stamp] = time.process_time()
        return stamp

    @contextmanager
    def setup(self):
        started = self.mark()
        yield
        self.record_setup(started, self.mark(closing=True))

    def record_setup(self, started: float, ended: float) -> None:
        self.setups.append((started, ended))

    @contextmanager
    def window(self):
        if self.recorder is not None:
            self.recorder.reset()
        started = self.mark()
        yield
        self.record_window(started, self.mark(closing=True))

    def record_window(self, started: float, ended: float) -> None:
        self.windows.append((started, ended))
        if self.recorder is not None:
            self.ledger = self.recorder.ledger()
            self.outer_s = self.recorder.outer[0]

    # -- reading -----------------------------------------------------------
    def interval(self, started: float, ended: float) -> "Dict[str, float]":
        """Measured and corrected wall/CPU seconds of one interval."""
        if self.clock is None:
            wall = ended - started
            cpu = self._cpu_at.get(ended, ended) - self._cpu_at.get(started, started)
            return {"wall": wall, "wall_corrected": wall, "cpu": cpu, "cpu_corrected": cpu}
        wall, wall_corrected = self.clock.wall(started, ended)
        cpu, cpu_corrected = self.clock.cpu(started, ended)
        return {"wall": wall, "wall_corrected": wall_corrected, "cpu": cpu, "cpu_corrected": cpu_corrected}

    def window_seconds(self) -> "Dict[str, float]":
        if not self.windows:
            raise RuntimeError("the workload never opened its measured window")
        pieces = [self.interval(started, ended) for started, ended in self.windows]
        return {key: sum(piece[key] for piece in pieces) for key in pieces[0]}


def _delta(before: "Dict[str, float]", after: "Dict[str, float]") -> "Dict[str, float]":
    """Counter increase over the window (per-pair detail left out)."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if not key.startswith("net_pair_") and key != "sim_queue_pending"
    }


def _bare_engine_rate(simulator_type, events: int = 200_000) -> float:
    """Events per second of an engine that schedules and fires no-ops:
    the ceiling any protocol run sits under."""

    def nothing() -> None:
        return None

    sim = simulator_type()
    started = time.perf_counter()
    for _ in range(events // 1000):
        for i in range(1000):
            sim.schedule(0.001 * (i % 7), nothing)
        sim.run()
    return events / (time.perf_counter() - started)


# ---------------------------------------------------------------------------
# monolithic simulator: the two clean workloads
# ---------------------------------------------------------------------------
def _send(system, log: "List[bool]", src: int, dst: int, payload: bytes) -> None:
    log.append(system.send(src, dst, payload))


#: How far ``--seed`` moves a send: enough that no two seeds share an
#: event timeline to the last digit, not enough to reorder events.
SEND_JITTER = 1e-6


def _plan_sends(
    rng: random.Random, nodes: int, start: float, rounds: int, period: float, tag: str
) -> "List[Tuple[float, int, int, bytes]]":
    """Every node sends one message per ``period`` to another node.

    Who sends to whom, and at which instant of the period, is drawn from
    the scenario seed. The simulator is chaotic — one send that lands in
    the next origination slot reshuffles every relay queue behind it — so
    with a couple of hundred operations per run a fresh pattern, or the
    same pattern shifted by a fraction of a slot, moves p50 by 7% and p95
    by 12-15% (p90 less, still several per cent) from one seed to the next: sampling noise that would drown
    any change a later PR makes. ``rng`` (the run's ``--seed``) therefore
    only nudges each send by up to a microsecond and fills its payload."""
    pattern = random.Random(SCENARIO_SEED)
    sends = []
    for k in range(rounds):
        for src in range(nodes):
            dst = pattern.randrange(nodes - 1)
            if dst >= src:
                dst += 1
            at = start + k * period + pattern.uniform(0.0, period) + rng.uniform(0.0, SEND_JITTER)
            payload = f"{tag}/{k}/{src}/".encode() + rng.randbytes(24)
            sends.append((at, src, dst, payload))
    return sends


def _clean_sim(
    bench: Bench,
    seed: int,
    *,
    tag: str,
    nodes: int,
    config,
    warmup: float,
    rounds: int,
    period: float,
    tail: float,
    drain: float,
) -> Result:
    """Bootstrap, warm up, then a window of ``rounds * period + tail``
    simulated seconds with sends in all but the tail.

    The protocol originates one (data, relay or noise) broadcast per node
    per slot whatever the application does, so the tail without sends
    costs about what the rest of the window costs."""
    system = node_ids = None
    for _ in range(bench.setup_reps):
        with bench.setup():
            system = adapter.RacSystem(config, seed=SCENARIO_SEED)
            node_ids = system.bootstrap(nodes)
            system.run(warmup)

    rng = random.Random(seed)
    window = rounds * period + tail
    accepted: "List[bool]" = []
    plan = _plan_sends(rng, nodes, system.now, rounds, period, tag)
    expected: "Dict[int, Counter]" = {nid: Counter() for nid in node_ids}
    for at, src, dst, payload in plan:
        system.sim.schedule_at(at, _send, system, accepted, node_ids[src], node_ids[dst], payload)
        expected[node_ids[dst]][payload] += 1

    before = system.stats_report()
    with bench.window():
        system.run(window)
    counters = _delta(before, system.stats_report())
    system.run(drain)

    problems: "List[str]" = []
    refused = accepted.count(False)
    undelivered = 0
    for nid in node_ids:
        got = Counter(system.delivered_messages(nid))
        if got != expected[nid]:
            missing = sum((expected[nid] - got).values())
            extra = sum((got - expected[nid]).values())
            undelivered += missing
            problems.append(
                f"node {nid:#x}: delivered multiset differs from what was sent to it "
                f"({missing} missing, {extra} unexpected)"
            )
    report = system.stats_report()
    accusations = sum(v for k, v in report.items() if k.startswith("accusation_"))
    if accusations or report.get("relay_blacklisted", 0):
        problems.append(
            f"{accusations} accusations and {report.get('relay_blacklisted', 0)} relay "
            "blacklistings on a workload with no deviant"
        )
    if system.evicted:
        problems.append(f"{len(system.evicted)} evictions on a workload with no deviant")
    if len(accepted) != len(plan):
        problems.append(f"only {len(accepted)} of {len(plan)} planned sends were issued")

    extras: "Dict[str, float]" = {}
    if bench.want_extras:
        extras["simnet.engine.bare_events_per_s"] = _bare_engine_rate(type(system.sim))
    return Result(
        attempted=len(plan),
        failed=refused + undelivered,
        problems=problems,
        latencies_s=list(system.latency_meter.samples),
        protocol_seconds=window,
        counters=counters,
        extras=extras,
        notes=[
            f"monolithic simulator, {nodes} nodes, {len(plan)} sends over "
            f"{rounds * period:g} of {window:g} simulated seconds "
            f"({counters.get('sim_events_processed', 0):.0f} events)"
        ],
    )


def sim_flood_40(bench: Bench, seed: int, scale: float, nodes: int = 40) -> Result:
    rounds = max(1, round(5 * scale))
    return _clean_sim(
        bench,
        seed,
        tag="flood",
        nodes=nodes,
        config=rac_config(),
        warmup=0.15,
        rounds=rounds,
        period=0.3,
        tail=0.6,
        drain=0.1,
    )


def sim_onion_dh_12(bench: Bench, seed: int, scale: float, nodes: int = 12) -> Result:
    rounds = max(1, round(17 * scale))
    return _clean_sim(
        bench,
        seed,
        tag="onion",
        nodes=nodes,
        # Paper-shaped onions: real DH sealed boxes, 10 kB padded
        # messages, five relays. An onion needs six origination slots at
        # six nodes; at one message per node per 0.4 s three quarters of
        # all slots carry relay duties, so the relay timer needs slack.
        config=rac_config(
            key_backend="dh",
            message_size=10_000,
            num_relays=5,
            relay_timeout=2.0,
        ),
        warmup=0.15,
        rounds=rounds,
        period=0.4,
        tail=1.2,
        drain=0.2,
    )


# ---------------------------------------------------------------------------
# monolithic simulator under a fault storm with one planted deviant
# ---------------------------------------------------------------------------
#: Creation index of the planted silent relay.
STORM_DEVIANT_INDEX = 3


def _pump(system, sent: "List[Tuple[int, int, bytes, float]]", src: int, dst: int, payload: bytes) -> None:
    """One send; skipped when either end is evicted or crashed for good,
    as an application would."""
    for nid in (src, dst):
        node = system.nodes.get(nid)
        if node is None or not node.active:
            return
    if system.send(src, dst, payload):
        sent.append((src, dst, payload, system.now))


def sim_storm_16(bench: Bench, seed: int, scale: float, nodes: int = 16) -> Result:
    # Conviction needs a relay timeout, the f*G+1 accusers and two
    # blacklist rounds; twelve simulated seconds is the floor.
    horizon = float(max(12, round(12 * scale)))
    traffic_interval = 0.025
    heal_bound = 4.0
    # Accountability timers sit above every fault window of the storm
    # (at most min(2 s, horizon / 8)) so a healing fault cannot read as
    # freeriding, and the ARQ keeps retransmitting through an outage
    # (64 x 0.25 s) instead of abandoning a copy that would then be
    # missed forever.
    config = rac_config(
        relay_timeout=4.0,
        predecessor_timeout=4.0,
        rate_window=4.0,
        blacklist_period=1.5,
        join_settle_time=0.5,
        link_loss_rate=0.02,
        transport_rto_max=0.25,
        transport_max_retries=64,
    )
    system = node_ids = plan = None
    for _ in range(bench.setup_reps):
        with bench.setup():
            system = adapter.RacSystem(config, seed=SCENARIO_SEED)
            node_ids = system.bootstrap(
                nodes,
                behaviors={
                    STORM_DEVIANT_INDEX: adapter.make_behavior("silent-relay", seed=SCENARIO_SEED)
                },
            )
            plan = adapter.storm_plan(nodes, horizon, seed=SCENARIO_SEED)
            plan.compile_sim(system, node_ids)
    deviant = node_ids[STORM_DEVIANT_INDEX]

    checker = adapter.InvariantChecker(
        node_ids,
        deviants=(deviant,),
        heal_bound=heal_bound,
        must_detect=(deviant,),
        detection_bound=horizon,
    )
    checker.note_plan(plan, node_ids)
    for event in plan.schedule():
        if event.kind == "crash":
            checker.note_crash(node_ids[event.node], event.at)
            if event.restart_after is not None:
                checker.note_restart(node_ids[event.node], event.at + event.restart_after)

    sent: "List[Tuple[int, int, bytes, float]]" = []
    rng = random.Random(seed)
    pattern = random.Random(SCENARIO_SEED)
    k, slot_start = 0, 0.2
    # Stop sending early enough for a relay-timeout retransmission (a
    # relay crashed, cut off or silent) to land before the horizon.
    while slot_start < horizon - 5.0:
        src = k % nodes
        dst = pattern.randrange(nodes - 1)
        if dst >= src:
            dst += 1
        payload = f"storm/{k}/".encode() + rng.randbytes(24)
        at = slot_start + pattern.uniform(0.0, traffic_interval) + rng.uniform(0.0, SEND_JITTER)
        system.sim.schedule_at(at, _pump, system, sent, node_ids[src], node_ids[dst], payload)
        slot_start += traffic_interval
        k += 1

    before = system.stats_report()
    with bench.window():
        system.run(horizon)
    counters = _delta(before, system.stats_report())

    checker.finish(system.now)
    delivered_at: "Dict[Tuple[int, bytes], float]" = {}
    for nid in node_ids:
        node = system.nodes[nid]
        for when, payload in zip(node.delivered_at, node.delivered):
            checker.record_delivery(when, nid, payload)
            delivered_at.setdefault((nid, payload), when)
    for accused, info in system.evicted.items():
        checker.record_eviction(info["at"], info["by"], accused, info["kind"])
    blacklists = {}
    for node in system.nodes.values():
        if node.active:
            members = set(node.relays_blacklist.members())
            for blacklist in node.pred_blacklists.values():
                members.update(blacklist.members())
            blacklists[node.node_id] = members
    report = checker.check(blacklists)

    problems = [str(violation) for violation in report.violations]
    honest_evicted = [nid for nid in system.evicted if nid != deviant]
    if honest_evicted:
        problems.append(f"{len(honest_evicted)} honest nodes evicted")
    detection = system.evicted.get(deviant, {}).get("at")
    if detection is None:
        problems.append("the planted silent relay was never evicted")
    # A message whose sender or receiver is evicted mid-flight has nobody
    # left to deliver it; everything else must arrive.
    surviving = [
        (dst, payload, at)
        for src, dst, payload, at in sent
        if src not in system.evicted and dst not in system.evicted
    ]
    latencies = [
        delivered_at[(dst, payload)] - at for dst, payload, at in surviving if (dst, payload) in delivered_at
    ]
    undelivered = len(surviving) - len(latencies)
    if undelivered:
        problems.append(f"{undelivered} messages between surviving nodes were never delivered")
    extras = {"core.blacklist.detection_time_s": detection if detection is not None else 0.0}
    if bench.want_extras:
        extras["simnet.engine.bare_events_per_s"] = _bare_engine_rate(type(system.sim))
    return Result(
        attempted=len(surviving),
        failed=undelivered,
        problems=problems,
        latencies_s=latencies,
        protocol_seconds=horizon,
        counters=counters,
        extras=extras,
        notes=[
            f"monolithic simulator, {nodes} nodes, 2% link loss, storm plan "
            f"{plan.fingerprint()[:12]} ({len(plan.events)} events) over {horizon:g} simulated seconds",
            f"silent relay {deviant:#x} "
            + (f"evicted at t={detection:g} s" if detection is not None else "never evicted")
            + "; "
            f"{report.checks} invariant checks, {len(report.violations)} violations",
        ],
    )


# ---------------------------------------------------------------------------
# group-sharded simulator, one core
# ---------------------------------------------------------------------------
def sharded_serial_256(bench: Bench, seed: int, scale: float, nodes: int = 256, shards: int = 8) -> Result:
    """``run_sharded`` is one opaque call, so the split between setup and
    window is read off what the run leaves on disk: epoch 0 (population
    planning, shard builds, the first epoch, the first snapshots) is
    setup; the window opens when the coordinator writes the
    epoch-1 barrier file and closes when the call returns."""
    # Every node queues its message at t=0 and the slowest onion needs
    # about two simulated seconds, so two epochs of 1.5 s is the floor.
    epochs = max(2, round(2 * scale))
    epoch_seconds = 1.5
    spec = adapter.ScaleSpec(
        nodes=nodes,
        num_shards=shards,
        seed=SCENARIO_SEED,
        horizon=epochs * epoch_seconds,
        epoch=epoch_seconds,
        messages=1,
        group_max=16,
        # On top of the spec's own preset (the small shape with 0.25 s
        # slots and 1 kB messages): without the short settle time every
        # send waits out a full simulated second of relay quarantine, and
        # the preset's relay timeout equals its own lower bound of
        # (L + 2) slots, so queued relay duties read as silent relays and
        # senders retransmit.
        # The jitter amplitude (1-2 microseconds on a 50 microsecond
        # hop) is this workload's seeded input: same population and
        # traffic, a different event timeline per seed.
        config={
            "join_settle_time": 0.05,
            "relay_timeout": 2.0,
            "propagation_jitter": 1e-6 * (1.0 + random.Random(seed).random()),
        },
        deviants={},
        coalition=None,
        plan=None,
    )
    scratch = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="sharded-", dir=scratch)
    try:
        # File times are on the realtime clock; the bench marks are not.
        realtime_offset = time.time() - time.perf_counter()
        if bench.recorder is not None:
            bench.recorder.reset()
        started = bench.mark()
        outcome = adapter.run_sharded(spec, run_dir, workers=1, serial=True)
        ended = bench.mark(closing=True)
        if bench.clock is None:
            # The passes of a traced run compare the whole call, shard
            # builds included, so that the ledger covers what is timed.
            window_start = started
        else:
            barrier = os.path.join(run_dir, "barriers", "epoch001.json")
            window_start = os.stat(barrier).st_mtime - realtime_offset
            window_start = min(max(window_start, started), ended)
        bench.record_setup(bench.origin, window_start)
        bench.record_window(window_start, ended)

        latencies: "List[float]" = []
        for shard in range(spec.num_shards):
            path = os.path.join(run_dir, "shards", f"shard{shard:03d}.snap")
            system, _meta = adapter.load_snapshot(path)
            latencies.extend(system.latency_meter.samples)
        with open(os.path.join(run_dir, "results.jsonl"), encoding="utf-8") as fh:
            cells = [json.loads(line) for line in fh if line.strip()]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems: "List[str]" = []
    # The run's own traffic plan: every node sends one message, tagged
    # with the spec seed, to the next member of its group.
    prefix = f"scale/{spec.seed}/".encode().hex()
    distinct = len(set(outcome.delivered))
    foreign = sum(1 for payload in outcome.delivered if not payload.startswith(prefix))
    if distinct != spec.nodes or foreign:
        problems.append(
            f"{distinct} distinct payloads delivered ({foreign} not from this run), {spec.nodes} sent"
        )
    if outcome.evicted:
        problems.append(f"{len(outcome.evicted)} evictions on a workload with no deviant")
    if len(outcome.shard_fingerprints) != spec.num_shards or not outcome.merged_fingerprint:
        problems.append("the run produced no merged fingerprint")
    failed_cells = [cell for cell in cells if cell.get("status") != "ok"]
    if failed_cells or len(cells) != spec.num_shards * epochs:
        problems.append(f"{len(cells)} shard-epoch cells recorded, {len(failed_cells)} not ok")

    measured_epochs = epochs - 1 if bench.clock is not None else epochs
    return Result(
        attempted=spec.nodes,
        failed=max(0, spec.nodes - distinct),
        problems=problems,
        latencies_s=latencies,
        protocol_seconds=measured_epochs * epoch_seconds,
        counters=dict(outcome.stats),
        extras={"orchestrator.sharded.events_per_core_s": outcome.events_processed / outcome.wall_seconds},
        notes=[
            f"group-sharded simulator, serial on one core: {spec.nodes} nodes in "
            f"{spec.num_shards} shards, {epochs} epochs of {epoch_seconds:g} simulated seconds "
            f"({outcome.events_processed} events, {len(outcome.delivered)} deliveries incl. "
            f"{len(outcome.delivered) - distinct} duplicates)",
            f"merged fingerprint {outcome.merged_fingerprint}",
            f"the window is the last {measured_epochs} of them",
        ],
    )


# ---------------------------------------------------------------------------
# live runtime over host loopback TCP
# ---------------------------------------------------------------------------
LIVE_SEND_PERIOD = 0.25
LIVE_TAIL = 1.0
LIVE_WARMUP = 0.5


def _live_config(send_interval: float) -> "adapter.RacConfig":
    # Wall-clock timers hold slack for scheduler jitter; the blacklist
    # shuffle is a system-level sub-protocol the live runtime does not
    # host (blacklist_period=0 turns it off).
    return rac_config(
        send_interval=send_interval,
        relay_timeout=3.0,
        predecessor_timeout=1.5,
        rate_window=3.0,
        blacklist_period=0.0,
        join_settle_time=0.1,
    )


def _live_counters(cluster) -> "Dict[str, float]":
    totals: "Dict[str, float]" = {}
    for node in cluster.nodes:
        for name, value in node.counters().items():
            totals[name] = totals.get(name, 0) + value
    return totals


async def _live_incarnation(
    bench: "Optional[Bench]",
    rng: random.Random,
    nodes: int,
    send_interval: float,
    send_period: float,
    duration: float,
    tag: str,
) -> "Dict[str, object]":
    """One cluster's life: start, warm up, offer an open-loop load for
    ``duration`` wall seconds (sends stop ``LIVE_TAIL`` before the end),
    drain, shut down, check.

    Open loop: every node is *due* to queue one payload each
    ``send_period``, whether or not earlier ones were delivered; latency
    runs from the due time, so a stalled loop shows up as latency and as
    generator lateness, not as lighter load."""
    loop = asyncio.get_running_loop()
    arrivals: "Dict[bytes, float]" = {}

    def on_delivered(_node_id: int, payload: bytes) -> None:
        arrivals.setdefault(payload, loop.time())

    started = bench.mark() if bench is not None else 0.0
    cluster = adapter.LiveCluster(
        nodes, config=_live_config(send_interval), seed=SCENARIO_SEED, on_delivered=on_delivered
    )
    await cluster.start()
    await asyncio.sleep(LIVE_WARMUP)
    if bench is not None:
        bench.record_setup(started, bench.mark(closing=True))

    rounds = max(1, int((duration - LIVE_TAIL) / send_period))
    schedule = sorted(_plan_sends(rng, nodes, 0.0, rounds, send_period, tag))
    node_ids = [material.node_id for material in cluster.materials]
    expected: "Dict[int, Counter]" = {nid: Counter() for nid in node_ids}
    due_at: "Dict[bytes, float]" = {}
    lateness: "List[float]" = []
    refused = 0

    before = _live_counters(cluster)
    cpu_started = time.process_time()
    if bench is not None and bench.recorder is not None:
        bench.recorder.reset()
    window_started = bench.mark() if bench is not None else time.perf_counter()
    zero = loop.time()
    for due, src, dst, payload in schedule:
        wait = zero + due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        lateness.append(loop.time() - (zero + due))
        due_at[payload] = zero + due
        if cluster.queue_message(src, dst, payload):
            expected[node_ids[dst]][payload] += 1
        else:
            refused += 1
    await asyncio.sleep(max(0.0, zero + duration - loop.time()))
    window_ended = bench.mark(closing=True) if bench is not None else time.perf_counter()
    if bench is not None:
        bench.record_window(window_started, window_ended)
    cpu_seconds = time.process_time() - cpu_started
    counters = _delta(before, _live_counters(cluster))

    await asyncio.sleep(0.3)
    report = await cluster.shutdown(duration)

    problems: "List[str]" = []
    undelivered = 0
    for nid in node_ids:
        got = Counter(report.delivered.get(nid, []))
        if got != expected[nid]:
            missing = sum((expected[nid] - got).values())
            undelivered += missing
            problems.append(
                f"node {nid:#x}: delivered multiset differs from what was sent to it "
                f"({missing} missing, {sum((got - expected[nid]).values())} unexpected)"
            )
    if report.accusations or report.evicted:
        problems.append(
            f"{report.accusations} accusations and {len(report.evicted)} evictions with no deviant"
        )
    if report.errors:
        problems.append(f"{len(report.errors)} callback errors, first: {report.errors[0]}")
    return {
        "attempted": len(schedule),
        "failed": refused + undelivered,
        "problems": problems,
        "latencies": [arrivals[p] - due for p, due in due_at.items() if p in arrivals],
        "lateness": lateness,
        "counters": counters,
        "wall_seconds": window_ended - window_started,
        "cpu_seconds": cpu_seconds,
    }


async def _live_pass(
    bench: "Optional[Bench]",
    seed: int,
    nodes: int,
    send_interval: float,
    send_period: float,
    duration: float,
    incarnations: int,
) -> "Dict[str, object]":
    """``duration`` wall seconds of offered load, split evenly over
    ``incarnations`` clusters run one after the other.

    The nodes' origination slots keep, for a cluster's whole life, the
    phases they happened to start with, and that alignment shifts every
    latency percentile of a run by 10-20%. Several short lives per run
    average the draw (and are the setup repetitions ``setup_s`` wants)."""
    rng = random.Random(seed)
    lives = [
        await _live_incarnation(
            bench, rng, nodes, send_interval, send_period, duration / incarnations, f"live{i}"
        )
        for i in range(incarnations)
    ]
    total: "Dict[str, object]" = {
        key: sum((life[key] for life in lives), type(lives[0][key])())
        for key in ("attempted", "failed", "problems", "latencies", "lateness", "wall_seconds", "cpu_seconds")
    }
    counters: "Dict[str, float]" = {}
    for life in lives:
        for name, value in life["counters"].items():
            counters[name] = counters.get(name, 0) + value
    total["counters"] = counters
    # Latency runs from the due time, so a late generator is counted, not
    # hidden. Half a slot late at p95 says the loop is close to full (the
    # notes flag it); a whole send period late says the open-loop schedule
    # has collapsed into bursts, and that fails the run.
    total["late_p95"] = percentile(total["lateness"], 95)
    if total["late_p95"] >= send_period:
        total["problems"].append(
            f"the load generator ran {total['late_p95'] * 1e3:.1f} ms late at p95, a send period is "
            f"{send_period * 1e3:.0f} ms: the offered load was not the one scheduled"
        )
    total["loop_util"] = total["cpu_seconds"] / total["wall_seconds"]
    return total


async def _live(bench: Bench, seed: int, scale: float, nodes: int) -> Result:
    lives = bench.setup_reps
    duration = max(LIVE_TAIL + 2 * LIVE_SEND_PERIOD, 10.0 * scale / lives) * lives
    main = await _live_pass(bench, seed, nodes, 0.05, LIVE_SEND_PERIOD, duration, lives)
    frames = main["counters"].get("live_frames_sent", 0)
    extras = {
        "live.loadgen.late_p95_ms": main["late_p95"] * 1e3,
        "live.loadgen.loop_util": main["loop_util"],
        "live.environment.cpu_us_per_frame": main["cpu_seconds"] / frames * 1e6 if frames else 0.0,
    }
    notes = [
        f"live runtime, tasks mode: {nodes} nodes in one process exchanging frames over "
        f"host loopback TCP (127.0.0.1), no link crossed; open loop, one send per node per "
        f"{LIVE_SEND_PERIOD:g} s for {duration - lives * LIVE_TAIL:g} of {duration:g} wall seconds, "
        f"over {lives} cluster lives",
        f"load generator late p95 {main['late_p95'] * 1e3:.2f} ms"
        + (" (more than half a slot: the loop is close to full)" if main["late_p95"] >= 0.025 else "")
        + ", loop busy "
        f"{main['loop_util']:.2f} of one core, {frames:.0f} frames sent",
    ]
    if bench.want_extras:
        # Informational: where does the loop saturate? Three slot rates,
        # one send per node per five slots, four seconds each.
        clean_rate = 0.0
        for rate in (20, 40, 80):
            step = await _live_pass(None, seed, nodes, 1.0 / rate, 5.0 / rate, LIVE_TAIL + 2.5, 1)
            tail = percentile(step["latencies"], 90) * 1e3 if step["latencies"] else math.inf
            clean = not step["problems"] and step["loop_util"] < 0.9 and step["late_p95"] < 0.5 / rate
            notes.append(
                f"ladder {rate} slots/s/node: loop busy {step['loop_util']:.2f}, late p95 "
                f"{step['late_p95'] * 1e3:.2f} ms, delivery p90 {tail:.0f} ms, "
                f"{step['failed']} of {step['attempted']} failed -> {'clean' if clean else 'not clean'}"
            )
            if clean:
                clean_rate = float(rate)
        extras["live.loadgen.max_clean_slot_rate"] = clean_rate
    return Result(
        attempted=main["attempted"],
        failed=main["failed"],
        problems=main["problems"],
        latencies_s=main["latencies"],
        protocol_seconds=duration,
        counters=main["counters"],
        busy_clock="cpu",
        extras=extras,
        notes=notes,
    )


def live_loopback_8(bench: Bench, seed: int, scale: float, nodes: int = 8) -> Result:
    return asyncio.run(_live(bench, seed, scale, nodes))


WORKLOADS: "Dict[str, Callable[[Bench, int, float], Result]]" = {
    "sim-flood-40": sim_flood_40,
    "sim-onion-dh-12": sim_onion_dh_12,
    "sim-storm-16": sim_storm_16,
    "sharded-serial-256": sharded_serial_256,
    "live-loopback-8": live_loopback_8,
}

#: Why each workload exists (the ``why`` of BENCHMARK.json).
WHY: "Dict[str, str]" = {
    "sim-flood-40": "dissemination dominates: engine, network, ARQ and node forwarding do ~85% of the "
    "work, crypto ~3%; an engine or ring-lookup win shows here, a crypto win must not",
    "sim-onion-dh-12": "paper-shaped DH onions (10 kB, L=5): trial-peel misses make crypto.dh the top "
    "line; target for crypto and peel-memo work, bypass for engine work",
    "sim-storm-16": "same layers on the loss path: 2% loss, fault storm, a planted silent relay; ARQ "
    "retransmits, all three monitors, shuffles and one eviction; guards accountability",
    "sharded-serial-256": "8 shards on one core: half of the time is snapshot pickling, not "
    "simulation; the only workload where snapshot or orchestrator work shows, a bypass for the rest",
    "live-loopback-8": "asyncio TCP over host loopback, open loop: the only workload running the wire "
    "codec, framing and live environment; simnet does nothing here",
}
