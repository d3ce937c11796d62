"""The micro-gates: one ``GATES`` table, recorded to ``BENCH_protocol.json``
and checked against it.

A row names a gate, the ``measure_*`` call that reads it and its kind:

* ``time`` / ``rate`` — a wall-clock reading, taken between two runs of a
  fixed pure-Python kernel (``host_kernel_us``) and scaled by how much
  slower that kernel runs now than beside the committed reading; fails
  at ``bound`` (2x) slower than committed;
* ``count`` — a count the host does not enter; fails above ``bound``;
* ``relative`` — a count that wall-clock timers make repeat only to a
  few per cent; fails above ``bound`` times its committed value.

::

    PYTHONPATH=src python benchmarks/baseline.py                 # record every row (make bench)
    PYTHONPATH=src python benchmarks/baseline.py --segment       # life of one segment
    PYTHONPATH=src python benchmarks/baseline.py --live-frame    # cost of one live TCP frame
    PYTHONPATH=src python benchmarks/baseline.py --plan-cost 4096 64   # planning CPU of one sharded run

``benchmarks/test_bench_smoke.py`` checks every row (``make
ci-bench-smoke``). A new gate is one row, plus a ``measure_*`` function
if it needs one: the recorder and the check call the same one, so they
can never disagree on methodology.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

BASELINE_PATH = _REPO_ROOT / "BENCH_protocol.json"


def _best_of(fn, repeats: int, number: int) -> float:
    """Best mean-per-call (seconds) over ``repeats`` timing runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def measure_keystream_10k(repeats: int = 3, number: int = 300) -> float:
    """Microseconds to XOR a 10 kB message with the SHA256-CTR stream."""
    from repro.crypto import stream

    key, nonce, data = b"k" * 32, b"n" * 16, bytes(10_000)
    return _best_of(lambda: stream.keystream_xor(key, nonce, data), repeats, number) * 1e6


def measure_seal_unseal_10k(backend: str, repeats: int = 3, number: int = 100) -> float:
    """Microseconds for one seal+unseal round trip of a 10 kB message."""
    import random

    from repro.crypto.keys import KeyPair, seal

    rng = random.Random(1)
    pair = KeyPair.generate(backend, seed=2)
    msg = bytes(10_000)

    def roundtrip():
        blob = seal(pair.public, msg, seed=rng.getrandbits(62))
        return pair.unseal(blob)

    return _best_of(roundtrip, repeats, number) * 1e6


def measure_dh_trial_peel_us(repeats: int = 5, number: int = 10) -> float:
    """Microseconds per trial decryption when one 10 kB box sealed to
    one of 12 DH identities is tried by all 24 keys (ID and pseudonym)
    of the group — RAC's receive rule for one onion layer, 23 misses and
    one hit, KDF and MAC check included. Process caches are cleared per
    repetition: every repetition meets the ephemeral value cold."""
    from repro.crypto import clear_process_caches
    from repro.crypto.keys import AuthenticationError, KeyPair, seal

    keys = [KeyPair.generate("dh", seed=seed) for seed in range(24)]
    blob = seal(keys[7].public, bytes(10_000), seed=2013)

    def layer():
        clear_process_caches()
        opened = 0
        for key in keys:
            try:
                key.unseal(blob)
                opened += 1
            except AuthenticationError:
                pass
        assert opened == 1

    return _best_of(layer, repeats, number) / len(keys) * 1e6


def measure_dh_full_pows_per_layer(boxes: int = 60) -> float:
    """Built-in ``pow`` calls ``crypto/dh.py`` makes per sealed layer —
    each a full-length exponentiation, since tables are built by
    multiplying — when ``boxes`` boxes are sealed round-robin to 12 of
    24 DH identities and all 24 keys try each one, from cold process
    caches. A count, exact run to run: 3.0 while broadcast values and
    recipient keys shared one store (a cold seal and two counted trials
    per layer), 0.43 with a comb at the first trial and recipient keys
    in a store of their own (26 calls: two trials of the first value,
    two seals to each of the 12 keys)."""
    from repro.crypto import clear_process_caches, dh
    from repro.crypto.keys import AuthenticationError, KeyPair, seal

    keys = [KeyPair.generate("dh", seed=seed) for seed in range(24)]
    clear_process_caches()
    calls = 0

    def counted_pow(*args):
        nonlocal calls
        calls += 1
        return pow(*args)

    dh.pow = counted_pow  # module globals shadow the builtin
    try:
        for box in range(boxes):
            blob = seal(keys[box % 12].public, b"layer", seed=10_000 + box)
            opened = 0
            for key in keys:
                try:
                    key.unseal(blob)
                    opened += 1
                except AuthenticationError:
                    pass
            assert opened == 1
    finally:
        del dh.pow
    return calls / boxes


def measure_dh_keygen(repeats: int = 3, number: int = 100) -> float:
    """Milliseconds for one simulation-grade DH keypair — the
    ``KeyPair.generate("dh")`` path populations use, which derives the
    public half eagerly (comb-table hot)."""
    from repro.crypto.keys import KeyPair

    seeds = iter(range(10 ** 9))

    def keygen():
        return KeyPair.generate("dh", seed=next(seeds))

    return _best_of(keygen, repeats, number) * 1e3


def measure_engine_events_per_sec(total_events: int = 200_000) -> float:
    """Raw calendar-queue throughput: schedule-and-drain rate."""
    from repro.simnet.engine import Simulator

    sim = Simulator()
    for i in range(total_events):
        sim.schedule(float(i % 97) * 1e-3, _noop)
    t0 = time.perf_counter()
    sim.run()
    return total_events / (time.perf_counter() - t0)


def _noop() -> None:
    pass


def measure_host_kernel_us(steps: int = 20_000) -> float:
    """Microseconds this host takes, right now, for a fixed loop of the
    work the engine does (heap pops and pushes of list records, integer
    arithmetic, a dict write). It reads nothing of the program, so the
    ratio of two readings is how much the host itself sped up or slowed
    down between them."""
    from heapq import heapify, heappop, heappush

    heap = [[(i * 7919 % 4096) / 4096.0, i] for i in range(4096)]
    heapify(heap)
    table = {}
    acc = 0
    t0 = time.perf_counter()
    for step in range(steps):
        entry = heappop(heap)
        entry[0] += 0.37
        acc += step * step % 7
        table[step & 1023] = acc
        heappush(heap, entry)
    return (time.perf_counter() - t0) * 1e6


def with_host_kernel(measure, rounds: int = 1, rate: bool = False) -> "tuple[float, float]":
    """``(reading, host kernel µs)`` of the best of ``rounds`` calls of
    ``measure()``, each bracketed by two kernel runs. ``measure`` returns
    a time per operation, or with ``rate`` operations per second. "Best"
    is the fastest reading per kernel run — a host-speed-free figure —
    so a round that a noisy neighbour slowed throughout can still win,
    and the two numbers returned were taken at the same moment."""
    best = None
    for _ in range(rounds):
        before = measure_host_kernel_us()
        reading = measure()
        kernel = (before + measure_host_kernel_us()) / 2
        speed = reading * kernel if rate else -reading / kernel
        if best is None or speed > best[0]:
            best = (speed, reading, kernel)
    return best[1], best[2]


def _flood_system(warmup: float = 0.6, arq: bool = False, jitter: float = 0.0, nodes: int = 40):
    """The dissemination shape of ``rac_bench``'s ``sim-flood-40``: 40
    nodes (``nodes``) in one group, 3 rings, 2 kB noise every 50 ms,
    lossless 1 Gb/s star, so the transport goes direct. Warmed past the first
    predecessor-check deadline (0.5 s), so the calendar is at its
    steady depth: ~105 entries. ``arq=True`` sets a loss rate on a link
    no node has: every packet and draw stays, but the transport runs
    the ARQ (then ~110 entries, one of them its watch, against ~30
    unacknowledged segments). ``jitter`` seconds of propagation jitter
    let the star reorder (``sharded-serial-256`` draws 1-2 us)."""
    from repro.core.config import RacConfig
    from repro.core.system import RacSystem

    system = RacSystem(RacConfig.small(join_settle_time=0.05, propagation_jitter=jitter), seed=16)
    if arq:
        system.set_loss_rate(0.5, node_id=-1)
    system.bootstrap(nodes)
    system.run(warmup)
    return system


def measure_segment_us(repeats: int = 3, window: float = 0.3) -> float:
    """Host microseconds per reliable segment — one ring copy sent,
    routed, delivered (its ACK's bytes charged to the receiver's
    uplink) and handed to the next node — on the flood shape; best of
    ``repeats`` windows of ``window`` simulated seconds (28,800
    segments each)."""
    system = _flood_system()
    best = float("inf")
    for _ in range(repeats):
        before = system.transport.segments_sent
        t0 = time.perf_counter()
        system.run(window)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed / (system.transport.segments_sent - before))
    return best * 1e6


def measure_flood_gc_collections(window: float = 0.3) -> int:
    """Cycle-collector passes, all three generations together, during
    one ``window`` of simulated seconds on the flood shape, counted
    through ``gc.callbacks`` from a just-collected heap. A count of
    allocations, so the host does not enter: 236 while every run
    collected its young generation at CPython's default 700, 12 with
    ``Simulator.run``'s own threshold."""
    import gc

    system = _flood_system()
    passes = []

    def count(phase, info):
        if phase == "stop":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        system.run(window)
    finally:
        gc.callbacks.remove(count)
    return len(passes)


def measure_cyclic_garbage_per_dropped_node() -> float:
    """Objects only the cycle collector can free, per node, once a
    flood-shape system that took one snapshot is closed and dropped:
    ``gc.collect()`` with the collector off from before the build. A
    count: 535 while ``snapshot_system`` left its canonical copy
    unclosed (as much as dropping the system itself unclosed), 0.35
    while a closed system kept its injector <-> network edge, 0 since
    ``close()`` cuts every back-edge."""
    import gc

    from repro.simnet.snapshot import snapshot_system

    gc.collect()
    gc.disable()
    try:
        system = _flood_system()
        nodes = len(system.nodes)
        snapshot_system(system)
        system.close()
        del system
        return gc.collect() / nodes
    finally:
        gc.enable()


def measure_receipts(nodes: int = 40, churn: int = 0) -> "tuple[float, int]":
    """Heap bytes held when ``_flood_system(nodes=nodes)``'s window ends,
    as tracemalloc sees them, and the (node, message) records the nodes'
    broadcast states hold then. ``churn`` rounds follow the window: in
    each the oldest member leaves, a new node joins and the group runs
    0.1 s, so every ring edge a node has seen keeps its receipt bit."""
    import tracemalloc

    import repro.core.config  # noqa: F401 - imported before tracing starts
    import repro.core.system  # noqa: F401

    tracemalloc.start()
    try:
        system = _flood_system(nodes=nodes)
        for _ in range(churn):
            system.leave(min(node_id for node_id, node in system.nodes.items() if node.active))
            system.join()
            system.run(0.1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    records = sum(len(state) for node in system.nodes.values() for state in node._states.values())
    system.close()
    return held, records


def measure_receipt_bytes_per_record(nodes: int = 40) -> float:
    """Heap bytes per receipt record on the flood shape: what
    :func:`measure_receipts` sees held, divided by the records (~19k at
    40 nodes). Receipts are most of that heap, so the quotient is one
    receipt plus a small share of the fixed cost. A count, exact up to
    hash-seed table layout: ~680 while a receipt was a dataclass with a
    dict of copies and a fresh key tuple per copy, ~250 as one tuple
    over shared keys next to a per-node memo of opaque trial peels,
    ~174 without the memo, ~87 as an int bitmask over interned keys."""
    held, records = measure_receipts(nodes)
    return held / records


def measure_events_per_segment(window: float = 0.3, jitter: float = 0.0) -> float:
    """Calendar events fired per segment sent over one ``window`` of
    simulated seconds on ``_flood_system(jitter=jitter)``. A count: 4.01
    while every segment and its ACK each took an uplink hop and a
    delivery, 2.01 since a lossless star's segment goes direct and its
    ACK is a charge on the receiver's uplink, not a packet (the rest are
    ticks). With jitter a packet's router hop is an event of its own:
    ~6 while that star ran the ARQ (an ACK packet and watch firings),
    ~3 since its segments go direct with a seqno."""
    system = _flood_system(jitter=jitter)
    sim, transport = system.sim, system.transport
    events, segments = sim.events_processed, transport.segments_sent
    system.run(window)
    return (sim.events_processed - events) / (transport.segments_sent - segments)


def measure_owned_entries_per_segment(nodes: int = 16, horizon: float = 4.0) -> float:
    """Pending calendar entries that point back at their simulator, per
    unacknowledged segment, halfway through ``_storm_system``'s lossy
    storm run (~85 segments out). Only a handle that can be cancelled
    needs the back-pointer, and nothing in the simulation holds one, so
    this reads 0.0. A count: 4.7 on the flood shape (141 of 166 entries
    against 30 segments) while every entry was a ``ScheduledEvent``, 1.0
    while each segment had a retransmit timer."""
    system = _storm_system(nodes, horizon)
    system.run(horizon / 2)
    owned = sum(1 for entry in system.sim._queue if entry[4] is not None)
    return owned / sum(len(state.outstanding) for state in system.transport._senders.values())


def measure_arq_entries_per_segment(nodes: int = 16, horizon: float = 4.0) -> float:
    """ARQ calendar entries inserted per transmission (first sends and
    retransmissions), beyond the one each real timeout re-arms, over
    ``_storm_system``'s lossy storm run: the ``timer`` and
    ``schedule_reserved`` calls whose callback is the transport's
    ``_on_timeout``, less the live timeouts (``_time_out`` calls). On a
    lossy run each real deadline must re-arm the watch, so the raw count
    reads the retransmit ratio (~0.16 here); what is left counts the
    entries settled tickets cost. A count: 1.0 while every transmission
    armed its own timer, ~0.001 with one watch entry per transport that
    only a real deadline re-arms."""
    from unittest import mock

    from repro.simnet.transport import ReliableTransport

    system = _storm_system(nodes, horizon)
    sim, transport = system.sim, system.transport
    inserted = timeouts = 0
    time_out = ReliableTransport._time_out

    def counting(schedule):
        def call(when, callback, *args):
            nonlocal inserted
            inserted += getattr(callback, "__name__", None) == "_on_timeout"
            return schedule(when, callback, *args)

        return call

    def counted_time_out(arq, *args):
        nonlocal timeouts
        timeouts += 1
        time_out(arq, *args)

    for name in ("timer", "schedule_reserved"):
        setattr(sim, name, counting(getattr(sim, name)))
    with mock.patch.object(ReliableTransport, "_time_out", counted_time_out):
        system.run(horizon)
    return (inserted - timeouts) / (transport.segments_sent + transport.retransmits)


def measure_arq_ticket_visits_per_transmission(nodes: int = 16, horizon: float = 4.0) -> float:
    """Retransmit tickets examined per transmission, counted as calls
    to ``ReliableTransport._live``, on ``_storm_system``'s lossy storm
    run. A count: ~1.6 when each
    ticket is examined once after it is taken and again only while it
    heads the survivors heap; a watch that rescans every pending
    ticket per firing reads ~43."""
    from unittest import mock

    from repro.simnet.transport import ReliableTransport

    visits = 0
    live = ReliableTransport._live

    def counted(transport, *record):
        nonlocal visits
        visits += 1
        return live(transport, *record)

    system = _storm_system(nodes, horizon)
    with mock.patch.object(ReliableTransport, "_live", counted):
        system.run(horizon)
    transport = system.transport
    return visits / (transport.segments_sent + transport.retransmits)


def measure_segment_path(window: float = 0.3) -> dict:
    """What one segment costs in counts, all deterministic: engine
    events fired and cancelled, ``schedule``/``schedule_at``/
    ``schedule_from``/``schedule_reserved``/``timer`` calls, and
    Python-level calls as cProfile counts them (C builtins included)."""
    import cProfile
    import pstats

    system = _flood_system()
    sim, transport = system.sim, system.transport
    before = (transport.segments_sent, sim.events_processed, sim.events_cancelled)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(window)
    profiler.disable()
    segments = transport.segments_sent - before[0]
    stats = pstats.Stats(profiler)
    scheduled = sum(
        calls
        for (path, _line, name), (_cc, calls, *_rest) in stats.stats.items()
        if name in ("schedule", "schedule_at", "schedule_from", "schedule_reserved", "timer")
        and path.endswith("engine.py")
    )
    return {
        "segments": segments,
        "events_fired_per_segment": round((sim.events_processed - before[1]) / segments, 2),
        "events_cancelled_per_segment": round((sim.events_cancelled - before[2]) / segments, 2),
        "schedule_calls_per_segment": round(scheduled / segments, 2),
        "python_calls_per_segment": round(stats.total_calls / segments, 1),
    }


def measure_python_calls_per_segment() -> float:
    """``measure_segment_path``'s Python calls per segment (cProfile, C
    builtins included), deterministic on the flood shape. 89.4 while a
    broadcast copy built a frozen dataclass, raised and caught an
    ``AuthenticationError`` per trial key, re-read its receipt through
    ``copies_from`` and asked a faultless injector for a verdict; 88.0
    without; 57.9 since a lossless star's segment goes direct."""
    return measure_segment_path()["python_calls_per_segment"]


def measure_peel_miss_raises_per_trial(window: float = 0.3) -> float:
    """``AuthenticationError`` instances created per trial open (one key
    tried on one broadcast, counted as ``KeyPair.open`` calls) over one
    ``window`` of simulated seconds on ``_flood_system()``, where ~99.7%
    of trials miss. A count: 1.0 while a miss raised and caught the
    error, 0.0 since ``peel`` asks ``open``, which answers None."""
    from unittest import mock

    from repro.crypto.keys import AuthenticationError, KeyPair

    raised = trials = 0
    init, open_box = AuthenticationError.__init__, KeyPair.open

    def counted_init(error, *args):
        nonlocal raised
        raised += 1
        init(error, *args)

    def counted_open(pair, blob):
        nonlocal trials
        trials += 1
        return open_box(pair, blob)

    system = _flood_system()
    with mock.patch.object(AuthenticationError, "__init__", counted_init), mock.patch.object(
        KeyPair, "open", counted_open
    ):
        system.run(window)
    return raised / trials


def _storm_system(nodes: int, horizon: float):
    """A 2 %-loss system under the canned storm plan (three crash-restart
    outages, a loss window and two degradations), bootstrapped and not
    yet run."""
    from repro.chaos.plan import storm_plan
    from repro.core.config import timer_regime
    from repro.core.system import RacSystem

    system = RacSystem(timer_regime("detect", link_loss_rate=0.02), seed=16)
    population = system.bootstrap(nodes)
    storm_plan(nodes, horizon, seed=16).compile_sim(system, population)
    return system


def measure_storm_events_per_packet(nodes: int = 16, horizon: float = 4.0) -> float:
    """Calendar events fired per packet the router handled, on
    ``_storm_system``'s lossy storm run. A count, so the host does not
    enter and it repeats exactly: 2 per packet on the folded hop, 3 on
    the general one (which only packets near a window edge take), plus
    the timers of the protocol above."""
    system = _storm_system(nodes, horizon)
    system.run(horizon)
    network = system.network
    return system.sim.events_processed / (network.packets_delivered + network.packets_dropped)


async def _live_life(window: float, count_calls: bool) -> "tuple[int, int, float]":
    """``(frames sent, calls, CPU seconds)`` over ``window`` wall seconds
    of one warmed 8-node loopback cluster on ``rac_bench``'s live shape
    (one group, 3 rings, 2 kB cover traffic every 50 ms slot). Calls are
    what ``sys.setprofile`` reports: Python functions and C builtins."""
    import asyncio

    from repro.core.config import RacConfig
    from repro.live.cluster import LiveCluster

    config = RacConfig.small(
        relay_timeout=3.0,
        predecessor_timeout=1.5,
        rate_window=3.0,
        blacklist_period=0.0,
        join_settle_time=0.1,
    )
    cluster = LiveCluster(8, config=config, seed=16)
    calls = 0

    def hook(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    def frames_sent() -> int:
        return sum(node.counters().get("live_frames_sent", 0) for node in cluster.nodes)

    await cluster.start()
    try:
        await asyncio.sleep(0.5)
        before = frames_sent()
        cpu = time.process_time()
        if count_calls:
            sys.setprofile(hook)
        try:
            await asyncio.sleep(window)
        finally:
            sys.setprofile(None)
        cpu = time.process_time() - cpu
        frames = frames_sent() - before
    finally:
        report = await cluster.shutdown()
    assert frames and not report.errors and not report.evicted, (frames, report.errors, report.evicted)
    return frames, calls, cpu


def _median_per_frame(count_calls: bool, repeats: int, window: float) -> "tuple[float, float]":
    """``(calls, CPU seconds)`` per frame sent: each the median of
    ``repeats`` cluster lives."""
    import asyncio
    import statistics

    lives = [asyncio.run(_live_life(window, count_calls)) for _ in range(repeats)]
    return (
        statistics.median(calls / frames for frames, calls, _cpu in lives),
        statistics.median(cpu / frames for frames, _calls, cpu in lives),
    )


def measure_live_frame_calls(repeats: int = 3, window: float = 2.0) -> float:
    """Python calls per TCP frame sent, everything a live node does
    included (its share of ticks, timers and loop bookkeeping). A count,
    so the host's speed does not enter; wall-clock timers make it repeat
    to a few per cent, not exactly."""
    return _median_per_frame(True, repeats, window)[0]


def measure_live_frame() -> dict:
    """What ``--live-frame`` prints for one live frame: calls (profiled
    lives) and process CPU microseconds (separate, unprofiled lives)."""
    return {
        "live_frame_calls": round(measure_live_frame_calls(), 1),
        "live_frame_cpu_us": round(_median_per_frame(False, 3, 2.0)[1] * 1e6, 1),
    }


def measure_snapshot_save_ms(repeats: int = 5) -> float:
    """Median milliseconds for ``snapshot_system`` on one loaded shard
    (shard 0 of the N=64 / 2-shard scaling point, at t = 1 s)."""
    import statistics

    from repro.simnet.shard import ScaleSpec, build_shard_system, plan_shard_inputs
    from repro.simnet.snapshot import snapshot_system

    spec = ScaleSpec(nodes=64, num_shards=2, seed=7, horizon=2.0)
    system = build_shard_system(plan_shard_inputs(spec)[0])
    system.run(1.0)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        snapshot_system(system)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def measure_sharded_events_per_sec(
    nodes: int = 64, shards: int = 2, horizon: float = 2.0, seed: int = 7
) -> float:
    """Events per wall second of one serial sharded run: the N=64 point
    of ``results/scaling_curve.txt``, measured by its own
    ``measure_point`` (snapshots and barrier files included)."""
    from repro.experiments.scale_curve import measure_point

    return measure_point(nodes, shards, horizon=horizon, seed=seed)["events_per_sec"]


def _sharded_spec(nodes: int, shards: int, horizon: float):
    """``rac_bench``'s ``sharded-serial-256`` spec (seed 16) over ``nodes``
    nodes, ``shards`` shards and one epoch of ``horizon`` simulated
    seconds."""
    import random

    from repro.simnet.shard import ScaleSpec

    return ScaleSpec(
        nodes=nodes,
        num_shards=shards,
        seed=16,
        horizon=horizon,
        epoch=horizon,
        config={
            "join_settle_time": 0.05,
            "relay_timeout": 2.0,
            "propagation_jitter": 1e-6 * (1.0 + random.Random(16).random()),
        },
    )


def measure_population_draws_per_node(nodes: int = 256, shards: int = 8) -> float:
    """Identities drawn (``generate_node_material`` calls) per node in one
    serial sharded run of the ``sharded-serial-256`` shape, one 0.5 s
    epoch in a temporary run directory; draws do not depend on the
    horizon. A count: 8.0 (one per node per shard) while every shard
    planned the whole population before its first epoch, 1.0 since the
    coordinator plans once and each shard builds from its inputs."""
    import tempfile
    from unittest import mock

    from repro.core import identity
    from repro.orchestrator.sharded import run_sharded

    draws = 0
    draw = identity.generate_node_material

    def counted(*args):
        nonlocal draws
        draws += 1
        return draw(*args)

    with tempfile.TemporaryDirectory(prefix="rac_draws_") as run_dir:
        with mock.patch.object(identity, "generate_node_material", counted):
            run_sharded(_sharded_spec(nodes, shards, 0.5), run_dir, serial=True)
    return draws / nodes


def measure_plan_cost(nodes: int, shards: int) -> dict:
    """Process CPU one serial sharded run (one 0.05 s epoch) spends
    planning — the coordinator's plan and the inputs it writes, and
    every shard's read of its inputs — against one bare
    ``plan_population`` of the same spec. ``plans_per_run`` counts
    ``plan_population`` calls in the run: one, where every shard once
    planned for itself (``shards`` plans)."""
    import contextlib
    import tempfile
    from unittest import mock

    from repro.orchestrator import sharded
    from repro.simnet import shard

    spec = _sharded_spec(nodes, shards, 0.05)
    plan = shard.plan_population
    started = time.process_time()
    plan(spec)
    one = time.process_time() - started
    spent = {"cpu": 0.0, "plans": 0}

    def counted(spec):
        spent["plans"] += 1
        return plan(spec)

    def timed(step):
        def call(*args):
            started = time.process_time()
            try:
                return step(*args)
            finally:
                spent["cpu"] += time.process_time() - started

        return call

    patches = (
        mock.patch.object(shard, "plan_population", counted),
        mock.patch.object(sharded, "_write_shard_inputs", timed(sharded._write_shard_inputs)),
        mock.patch.object(sharded, "_read_shard_inputs", timed(sharded._read_shard_inputs)),
    )
    with tempfile.TemporaryDirectory(prefix="rac_plan_cost_") as run_dir, contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        sharded.run_sharded(spec, run_dir, serial=True)
    return {
        "nodes": nodes,
        "shards": shards,
        "plans_per_run": spent["plans"],
        "one_plan_cpu_s": round(one, 3),
        "planning_cpu_s_per_run": round(spent["cpu"], 3),
        "runs_planning_over_one_plan": round(spent["cpu"] / one, 2),
    }


KINDS = ("time", "rate", "count", "relative")


@dataclass(frozen=True)
class Gate:
    """One row of ``GATES``: ``measure()`` reads it, ``kind`` (one of
    ``KINDS``, see the module docstring) says how the reading is judged
    against the committed one."""

    name: str
    measure: Callable[[], float]
    kind: str
    bound: float = 2.0
    rounds: int = 1  # wall-clock rows: best of this many bracketed calls

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"gate {self.name}: kind {self.kind!r} is not one of {KINDS}")

    @property
    def wall_clock(self) -> bool:
        return self.kind in ("time", "rate")

    def read(self) -> "tuple[float, float | None]":
        """``(reading, host kernel µs)``; no kernel for a count."""
        if self.wall_clock:
            return with_host_kernel(self.measure, self.rounds, rate=self.kind == "rate")
        return self.measure(), None

    def check(self, doc: dict) -> "str | None":
        """None when a fresh reading is within bound against the row
        committed in ``doc``, else why not. A row with nothing committed
        fails unmeasured."""
        row = doc.get("gates", {}).get(self.name, {})
        if "value" not in row or (self.wall_clock and "host_kernel_us" not in row):
            return f"{self.name}: no committed value in {BASELINE_PATH.name} (run `make bench`)"
        rate = self.kind == "rate"
        reading, kernel = self.read()
        scaled, host = reading, "a count: the host does not enter"
        if kernel is not None:
            slowdown = kernel / row["host_kernel_us"]
            scaled = reading * slowdown if rate else reading / slowdown
            host = f"host kernel {kernel:.0f} us, {row['host_kernel_us']:.0f} us committed"
        if self.kind == "count":
            limit = self.bound
        else:
            limit = row["value"] / self.bound if rate else row["value"] * self.bound
        if (scaled >= limit) if rate else (scaled <= limit):
            return None
        return (
            f"{self.name}: {reading:.4g} raw, {scaled:.4g} host-scaled ({host}); "
            f"bound {'>=' if rate else '<='} {limit:.4g} ({self.kind}, {row['value']:.4g} committed; "
            "re-run `make bench` if this is an intentional trade-off)"
        )


#: Every micro-gate; each ``measure`` is called with the arguments the
#: gate has always used.
GATES = (
    Gate("keystream_10k_us", partial(measure_keystream_10k, repeats=5, number=200), "time"),
    Gate("sim_seal_unseal_10k_us", partial(measure_seal_unseal_10k, "sim", repeats=5, number=50), "time"),
    Gate("dh_seal_unseal_10k_us", partial(measure_seal_unseal_10k, "dh", repeats=5, number=30), "time"),
    # 22 of the 24 trials walk the ephemeral value's comb instead of
    # squaring it afresh (~2x per trial), so losing the table trips this
    Gate("dh_trial_peel_us", measure_dh_trial_peel_us, "time"),
    Gate("dh_full_pows_per_layer", measure_dh_full_pows_per_layer, "count", bound=1.0),
    Gate("dh_keygen_ms", measure_dh_keygen, "time"),
    # the C pickler is ~5x the pure-Python one it replaced
    Gate("snapshot_save_ms", measure_snapshot_save_ms, "time"),
    Gate("engine_events_per_sec", measure_engine_events_per_sec, "rate", rounds=3),
    Gate("sharded_events_per_sec", measure_sharded_events_per_sec, "rate"),
    # the coordinator plans once: a shard that plans the population for
    # itself again reads 8.0 (one draw per node per shard)
    Gate("population_draws_per_node", measure_population_draws_per_node, "count", bound=1.0),
    Gate("segment_us", partial(measure_segment_us, repeats=2), "time"),
    Gate("flood_gc_collections", measure_flood_gc_collections, "count", bound=60),
    # close() cuts every back-edge and a snapshot closes its canonical
    # copy: a copy (or a system) dropped unclosed reads ~535, a closed
    # system that keeps its injector <-> network edge 0.35
    Gate("cyclic_garbage_per_dropped_node", measure_cyclic_garbage_per_dropped_node, "count", bound=1.0),
    # one int bitmask per receipt over interned (predecessor, ring)
    # keys; a tuple of keys per receipt reads ~174, a per-message memo
    # beside it ~250, a dict or an object per record above 600
    Gate("receipt_bytes_per_record", measure_receipt_bytes_per_record, "count", bound=110),
    Gate("storm_events_per_packet", measure_storm_events_per_packet, "count", bound=2.2),
    # a lossless star's segment goes direct: an ACK packet (or any other
    # event) per segment again reads 4.01
    Gate("events_per_segment", measure_events_per_segment, "count", bound=2.1),
    # a faultless star that can reorder goes direct too: an ACK packet
    # (the ARQ) per segment again reads ~6
    Gate(
        "jittered_events_per_segment",
        partial(measure_events_per_segment, jitter=1e-6),
        "count",
        bound=3.1,
    ),
    # no entry is a ScheduledEvent; a hop or tick built as one again
    # points back at the simulator and lifts this above 1
    Gate("owned_entries_per_segment", measure_owned_entries_per_segment, "count", bound=1.0),
    # one watch entry per transport: a timer (or an insertion) per
    # transmission again reads 1.0
    Gate("arq_entries_per_segment", measure_arq_entries_per_segment, "count", bound=0.05),
    # each ticket examined about once: rescanning the pending tickets
    # at every watch firing reads ~43
    Gate("arq_ticket_visits_per_transmission", measure_arq_ticket_visits_per_transmission, "count", bound=3),
    # the per-copy path: 89.4 with a frozen-dataclass copy, a raised miss
    # per trial key, a second receipt read and a faultless fault check
    Gate("python_calls_per_segment", measure_python_calls_per_segment, "count", bound=88.5),
    # a trial peel that misses raises nothing: 1.0 while each miss raised
    Gate("peel_miss_raises_per_trial", measure_peel_miss_raises_per_trial, "count", bound=0.05),
    # 181 calls with a task switch per frame written, 107 with the I/O in
    # the loop's own callbacks. No wall-clock row: an asyncio loop on a
    # shared host has no steady time per frame
    Gate("live_frame_calls", partial(measure_live_frame_calls, repeats=1), "relative", bound=1.3),
)


def record(path: pathlib.Path = BASELINE_PATH) -> dict:
    """Read every row and rewrite ``path`` whole."""
    gates = {}
    for gate in GATES:
        reading, kernel = gate.read()
        gates[gate.name] = {"value": float(f"{reading:.4g}")}
        if kernel is not None:
            gates[gate.name]["host_kernel_us"] = round(kernel, 1)
    doc = {"schema": 2, "python": platform.python_version(), "gates": gates}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH)
    parser.add_argument(
        "--segment",
        action="store_true",
        help="print the per-segment cost counts of the 40-node flood shape "
        "(events, schedule calls, Python calls) and write nothing",
    )
    parser.add_argument(
        "--live-frame",
        action="store_true",
        help="print Python calls and CPU us per frame of an 8-node loopback "
        "cluster and write nothing",
    )
    parser.add_argument(
        "--receipts",
        type=int,
        metavar="N",
        help="print heap bytes per receipt record and MiB held by an N-node "
        "flood-shape group after 0.6 s, and write nothing",
    )
    parser.add_argument(
        "--churn",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="with --receipts: after the window, ROUNDS times the oldest member "
        "leaves, a new node joins and the group runs 0.1 s",
    )
    parser.add_argument(
        "--plan-cost",
        type=int,
        nargs=2,
        metavar=("N", "S"),
        help="print the CPU one serial N-node, S-shard run spends planning "
        "against one plan_population, and write nothing",
    )
    args = parser.parse_args(argv)
    if args.churn and args.receipts is None:
        parser.error("--churn needs --receipts")
    if args.plan_cost is not None:
        print(json.dumps(measure_plan_cost(*args.plan_cost), indent=2))
        return 0
    if args.receipts is not None:
        held, records = measure_receipts(args.receipts, args.churn)
        summary = {
            "nodes": args.receipts,
            "churn": args.churn,
            "records": records,
            "bytes_per_record": round(held / records, 1),
            "held_mib": round(held / 2**20, 1),
        }
        print(json.dumps(summary, indent=2))
        return 0
    if args.live_frame:
        print(json.dumps(measure_live_frame(), indent=2))
        return 0
    if args.segment:
        print(json.dumps({**measure_segment_path(), "segment_us": round(measure_segment_us(), 1)}, indent=2))
        return 0
    print(json.dumps(record(args.output), indent=2))
    print(f"\n[written {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
