"""Record the performance baseline to ``BENCH_protocol.json``.

Run as a script (``make bench`` does) to measure the crypto microbench
suite, the simulation engine's event rate and the 64-node end-to-end
wall clock, and write them — together with the frozen *seed-commit*
numbers and the resulting speedups — to the repo root::

    PYTHONPATH=src python benchmarks/baseline.py                 # full, ~2 min
    PYTHONPATH=src python benchmarks/baseline.py --quick         # skip 64-node
    PYTHONPATH=src python benchmarks/baseline.py --segment       # life of one segment
    PYTHONPATH=src python benchmarks/baseline.py --live-frame    # cost of one live TCP frame

The committed ``BENCH_protocol.json`` is the regression anchor:
``benchmarks/test_bench_smoke.py`` (run by CI) re-measures the
seal/peel, DH trial-peel, snapshot-save, bare-engine and per-segment
microbenches and fails when one has regressed more than 2x against the
committed numbers at the committed host speed (``host_kernel_us``),
when a live frame takes more than 1.3x the committed number of Python
calls, when a packet under a fault storm costs more than 2.2 calendar
events, when a flood window runs more than 60 cycle-collector passes,
or when a sealed DH layer costs more than one full-length ``pow``.

The measurement functions are importable so the smoke test and the
recorder can never disagree on methodology.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

BASELINE_PATH = _REPO_ROOT / "BENCH_protocol.json"

#: Seed-commit numbers, measured on the development machine (Python
#: 3.11, one warm run) by executing these same measurement functions
#: against the pre-optimisation tree (``git worktree`` of the seed).
#: They are frozen here because the seed code is no longer on any
#: branch head; the speedups in BENCH_protocol.json are relative to
#: these.
SEED_BASELINE = {
    "keystream_10k_us": 1151.0,
    "sim_seal_unseal_10k_us": 2423.0,
    "dh_seal_unseal_10k_us": 3086.0,
    "dh_keygen_ms": 0.202,
    "end_to_end_64_node_wall_s": 267.85,
}


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


def _flood_system(warmup: float = 0.6):
    """The dissemination shape of ``rac_bench``'s ``sim-flood-40``: 40
    nodes in one group, 3 rings, 2 kB noise every 50 ms, lossless 1 Gb/s
    star. Warmed past the first predecessor-check deadline (0.5 s), so
    the calendar is at its steady depth: ~166 entries, ~25 of them
    cancelled RTO timers."""
    from repro.core.config import RacConfig
    from repro.core.system import RacSystem

    system = RacSystem(RacConfig.small(join_settle_time=0.05), seed=16)
    system.bootstrap(40)
    system.run(warmup)
    return system


def measure_segment_us(repeats: int = 3, window: float = 0.3) -> float:
    """Host microseconds per reliable segment — one ring copy sent,
    routed, delivered, acknowledged and handed to the next node — on
    the flood shape; best of ``repeats`` windows of ``window`` simulated
    seconds (28,800 segments each)."""
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


def measure_segment_path(window: float = 0.3) -> dict:
    """What one segment costs in counts, all deterministic: engine
    events fired and cancelled, ``schedule``/``schedule_at``/
    ``schedule_from`` calls, and Python-level calls as cProfile counts
    them (C builtins included)."""
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
        if name in ("schedule", "schedule_at", "schedule_from") and path.endswith("engine.py")
    )
    return {
        "segments": segments,
        "events_fired_per_segment": round((sim.events_processed - before[1]) / segments, 2),
        "events_cancelled_per_segment": round((sim.events_cancelled - before[2]) / segments, 2),
        "schedule_calls_per_segment": round(scheduled / segments, 2),
        "python_calls_per_segment": round(stats.total_calls / segments, 1),
    }


def measure_storm_events_per_packet(nodes: int = 16, horizon: float = 4.0) -> float:
    """Calendar events fired per packet the router handled, on a
    2 %-loss run under the canned storm plan (three crash-restart
    outages, a loss window and two degradations). A count, so the host
    does not enter and it repeats exactly: 2 per packet on the folded
    hop, 3 on the general one (which only packets near a window edge
    take), plus the timers of the protocol above."""
    from repro.chaos.plan import storm_plan
    from repro.core.config import timer_regime
    from repro.core.system import RacSystem

    system = RacSystem(timer_regime("detect", link_loss_rate=0.02), seed=16)
    population = system.bootstrap(nodes)
    storm_plan(nodes, horizon, seed=16).compile_sim(system, population)
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
    assert frames and not report.errors and not report.evicted, report.render()
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
    """The ``microbench`` entries for one live frame: calls (profiled
    lives) and process CPU microseconds (separate, unprofiled lives)."""
    return {
        "live_frame_calls": round(measure_live_frame_calls(), 1),
        "live_frame_cpu_us": round(_median_per_frame(False, 3, 2.0)[1] * 1e6, 1),
    }


def measure_snapshot_save_ms(repeats: int = 5) -> float:
    """Median milliseconds for ``snapshot_system`` on one loaded shard
    (shard 0 of the N=64 / 2-shard scaling point, at t = 1 s)."""
    import statistics

    from repro.simnet.shard import ScaleSpec, build_shard_system
    from repro.simnet.snapshot import snapshot_system

    system = build_shard_system(ScaleSpec(nodes=64, num_shards=2, seed=7, horizon=2.0), 0)
    system.run(1.0)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        snapshot_system(system)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def measure_end_to_end(nodes: int = 64) -> dict:
    """Wall seconds of the acceptance-criterion 64-node experiment."""
    from repro.core.config import RacConfig
    from repro.core.system import RacSystem

    t0 = time.perf_counter()
    system = RacSystem(RacConfig.small(), seed=7)
    population = system.bootstrap(nodes)
    system.run(1.0)
    for i in range(16):
        system.send(population[i], population[(i + 32) % nodes], b"payload-%d" % i)
    system.run(5.0)
    wall = time.perf_counter() - t0
    return {
        "nodes": nodes,
        "wall_seconds": round(wall, 2),
        "events_processed": system.sim.events_processed,
        "delivered": system.stats.value("delivered"),
    }


def measure_scaling(points=None, horizon: float = 2.0) -> dict:
    """The sharded-simulator ``scaling`` section: events/s and wall time
    at N in {64, 256, 1024}, measured with the same code path as the
    committed ``results/scaling_curve.txt`` artifact."""
    from repro.experiments.scale_curve import SCALE_POINTS, measure_point

    measured = []
    for nodes, shards in points or SCALE_POINTS:
        point = measure_point(nodes, shards, horizon=horizon)
        # fingerprint lists live in results/scaling_curve.txt; the bench
        # file keeps the curve compact and diffable
        point.pop("shard_fingerprints", None)
        point.pop("shard_nodes", None)
        measured.append(point)
    return {"horizon": horizon, "points": measured}


def record_scaling(path: pathlib.Path = BASELINE_PATH) -> dict:
    """Measure the scaling curve and fold it into the committed bench
    file, leaving every other section untouched (the microbench and
    end-to-end sections take minutes to re-measure)."""
    doc = json.loads(path.read_text())
    doc["scaling"] = measure_scaling()
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def record(path: pathlib.Path = BASELINE_PATH, quick: bool = False) -> dict:
    engine_rate, host_kernel_us = with_host_kernel(measure_engine_events_per_sec, 3, rate=True)
    micro = {
        "keystream_10k_us": round(measure_keystream_10k(), 1),
        "sim_seal_unseal_10k_us": round(measure_seal_unseal_10k("sim"), 1),
        "dh_seal_unseal_10k_us": round(measure_seal_unseal_10k("dh"), 1),
        "dh_trial_peel_us": round(measure_dh_trial_peel_us(), 1),
        # a count: built-in pow calls per sealed layer tried by 24 keys
        "dh_full_pows_per_layer": round(measure_dh_full_pows_per_layer(), 2),
        "dh_keygen_ms": round(measure_dh_keygen(), 3),
        "engine_events_per_sec": round(engine_rate),
        # how fast the host ran while that was measured: the smoke gate
        # scales its own reading by the ratio of its kernel time to this
        "host_kernel_us": round(host_kernel_us, 1),
        "segment_us": round(measure_segment_us(), 1),
        # a count: what a packet costs the calendar with fault windows armed
        "storm_events_per_packet": round(measure_storm_events_per_packet(), 3),
        # a count: cycle-collector passes over one 0.3 s flood window
        "flood_gc_collections": measure_flood_gc_collections(),
        "snapshot_save_ms": round(measure_snapshot_save_ms(), 1),
        # one frame on a loopback TCP link, sender and receiver together
        **measure_live_frame(),
    }
    doc = {
        "schema": 1,
        "python": platform.python_version(),
        "microbench": micro,
        "seed_baseline": SEED_BASELINE,
        "speedups": {
            "keystream_10k": round(SEED_BASELINE["keystream_10k_us"] / micro["keystream_10k_us"], 2),
            "sim_seal_unseal_10k": round(
                SEED_BASELINE["sim_seal_unseal_10k_us"] / micro["sim_seal_unseal_10k_us"], 2
            ),
            "dh_seal_unseal_10k": round(
                SEED_BASELINE["dh_seal_unseal_10k_us"] / micro["dh_seal_unseal_10k_us"], 2
            ),
            "dh_keygen": round(SEED_BASELINE["dh_keygen_ms"] / micro["dh_keygen_ms"], 2),
        },
    }
    if not quick:
        end = measure_end_to_end()
        doc["end_to_end"] = end
        doc["speedups"]["end_to_end_64_node"] = round(
            SEED_BASELINE["end_to_end_64_node_wall_s"] / end["wall_seconds"], 2
        )
    if path.exists():
        # a full re-record must not silently drop the scaling section
        # (it is re-measured separately via --scaling)
        previous = json.loads(path.read_text())
        if "scaling" in previous:
            doc["scaling"] = previous["scaling"]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH)
    parser.add_argument(
        "--quick", action="store_true", help="skip the ~2-minute 64-node end-to-end run"
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="re-measure only the sharded scaling section (N=64/256/1024) "
        "and fold it into the existing baseline file",
    )
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
    args = parser.parse_args(argv)
    if args.live_frame:
        print(json.dumps(measure_live_frame(), indent=2))
        return 0
    if args.segment:
        print(json.dumps({**measure_segment_path(), "segment_us": round(measure_segment_us(), 1)}, indent=2))
        return 0
    if args.scaling:
        doc = record_scaling(args.output)
    else:
        doc = record(args.output, quick=args.quick)
    print(json.dumps(doc, indent=2))
    print(f"\n[written {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
