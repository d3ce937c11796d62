"""CI regression gate against the committed performance baseline.

Re-measures the seal+peel, trial-peel, snapshot-save, bare-engine and
per-segment microbenches with the exact methodology of
``benchmarks/baseline.py``, scales each reading to the speed the host
had when the committed ``BENCH_protocol.json`` was recorded (a fixed
pure-Python kernel timed alongside, ``host_kernel_us``), and fails when
one has regressed more than 2x against it. Four gates hold counts,
which do not depend on the host: a live TCP frame's Python calls (at
1.3x), a packet's calendar events under a fault storm, the cycle
collector's passes over a flood window, and the full-length ``pow``
calls per sealed DH layer. The 2x margin absorbs
CI-machine noise while still catching an accidentally reverted fast
path (the crypto optimisations are 4-6x, so losing one blows the gate;
the simulator's data path is a sum of small trims, so its gate catches
a wholesale revert or an accidental quadratic, not one lost trim).

Runs as a plain pytest test — no pytest-benchmark fixture — so it is
cheap enough for every CI push (``make ci-bench-smoke``).
"""

import json

import pytest

from benchmarks import baseline

REGRESSION_FACTOR = 2.0


@pytest.fixture(scope="module")
def committed():
    if not baseline.BASELINE_PATH.exists():
        pytest.skip("no committed BENCH_protocol.json (run `make bench` first)")
    return json.loads(baseline.BASELINE_PATH.read_text())["microbench"]


def _assert_not_regressed(committed, name, key, measure, unit="us", rate=False, rounds=1):
    # A wall-clock reading on a shared host swings 2x by itself, and the
    # committed number may come from a quicker host: every reading is
    # scaled by how much slower a fixed pure-Python kernel runs here and
    # now than it did next to the committed measurement.
    reading, kernel_us = baseline.with_host_kernel(measure, rounds, rate=rate)
    slowdown = kernel_us / committed["host_kernel_us"]
    measured = reading * slowdown if rate else reading / slowdown
    worse = committed[key] / measured if rate else measured / committed[key]
    assert worse <= REGRESSION_FACTOR, (
        f"{name} regressed: {reading:.0f}{unit} measured with the host kernel at {kernel_us:.0f} us "
        f"(committed {committed['host_kernel_us']:.0f} us), i.e. {measured:.0f}{unit} at the "
        f"committed host speed, vs {committed[key]:.0f}{unit} committed baseline "
        f"(>{REGRESSION_FACTOR}x; re-run `make bench` if this is an intentional trade-off)"
    )


def test_sim_seal_unseal_within_2x_of_baseline(committed):
    _assert_not_regressed(
        committed, "sim seal+unseal", "sim_seal_unseal_10k_us",
        lambda: baseline.measure_seal_unseal_10k("sim", repeats=5, number=50),
    )


def test_dh_seal_unseal_within_2x_of_baseline(committed):
    _assert_not_regressed(
        committed, "dh seal+unseal", "dh_seal_unseal_10k_us",
        lambda: baseline.measure_seal_unseal_10k("dh", repeats=5, number=30),
    )


def test_dh_trial_peel_within_2x_of_baseline(committed):
    # 24 keys try one box from cold caches: 22 of the 24 exponentiations
    # walk the ephemeral value's comb instead of squaring it afresh
    # (~2x per trial with KDF and MAC), so losing the table trips this
    _assert_not_regressed(committed, "dh trial peel", "dh_trial_peel_us", baseline.measure_dh_trial_peel_us)


def test_a_sealed_dh_layer_costs_under_one_full_pow(committed):
    # 3.0 while broadcast values and recipient keys shared one LRU (the
    # values flushed the keys, and each value paid two counted trials);
    # 0.43 with a comb at a value's first trial and recipient keys in a
    # store of their own. Exact, so the bound is absolute.
    measured = baseline.measure_dh_full_pows_per_layer()
    assert measured <= 1.0, (
        f"a sealed layer tried by 24 keys costs {measured:.2f} full-length pow calls "
        f"({committed['dh_full_pows_per_layer']:.2f} committed): broadcast values are counted "
        "again after the first reaches the threshold, or recipient keys lost their tables"
    )


def test_keystream_within_2x_of_baseline(committed):
    _assert_not_regressed(
        committed, "keystream", "keystream_10k_us",
        lambda: baseline.measure_keystream_10k(repeats=5, number=200),
    )


def test_snapshot_save_within_2x_of_baseline(committed):
    # the C pickler is ~5x the pure-Python one it replaced, so a revert trips this
    _assert_not_regressed(
        committed, "shard snapshot", "snapshot_save_ms", baseline.measure_snapshot_save_ms, unit="ms"
    )


def test_engine_events_within_2x_of_baseline(committed):
    _assert_not_regressed(
        committed, "bare engine", "engine_events_per_sec", baseline.measure_engine_events_per_sec,
        unit=" events/s", rate=True, rounds=3,
    )


def test_segment_cost_within_2x_of_baseline(committed):
    _assert_not_regressed(
        committed, "flood segment", "segment_us", lambda: baseline.measure_segment_us(repeats=2)
    )


def test_flood_window_collects_cycles_rarely(committed):
    # 236 collector passes (216 + 19 + 1 by generation) in a 0.3 s flood
    # window while CPython's default young generation of 700 applied to
    # the event loop; 12-13 (12 + 0-1 + 0) with Simulator.run's own
    # threshold. A count of allocations, so the bound is absolute.
    measured = baseline.measure_flood_gc_collections()
    assert measured <= 60, (
        f"the flood window ran {measured} cycle-collector passes "
        f"({committed['flood_gc_collections']} committed): Simulator.run no longer "
        "raises the young generation's threshold"
    )


def test_a_storm_packet_costs_two_events_not_three(committed):
    # 2.93 while a scheduled degradation put every packet of the run on
    # the three-event hop; 2.01 with the general hop kept to the packets
    # near a window edge. Exact, so the bound is absolute.
    measured = baseline.measure_storm_events_per_packet()
    assert measured <= 2.2, (
        f"a packet under the storm plan costs {measured:.2f} calendar events "
        f"({committed['storm_events_per_packet']:.2f} committed): the router -> downlink "
        "hop is an event of its own again"
    )


def test_live_frame_calls_within_1_3x_of_baseline(committed):
    # A task switch per frame written, two futures per frame read and a
    # per-field codec cost 1.7x the calls (181 against 107) of doing the
    # I/O inside the loop's own callbacks with a one-struct header. No
    # wall-clock gate: an asyncio loop on a shared host has no steady
    # time per frame.
    measured = baseline.measure_live_frame_calls(repeats=1)
    limit = committed["live_frame_calls"] * 1.3
    assert measured <= limit, (
        f"a live frame takes {measured:.0f} Python calls, {committed['live_frame_calls']:.0f} "
        f"committed (>1.3x; re-run `make bench` if this is an intentional trade-off)"
    )
