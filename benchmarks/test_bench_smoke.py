"""CI regression gate against the committed performance baseline.

Re-measures the seal+peel, trial-peel, snapshot-save, bare-engine and
per-segment microbenches with the exact methodology of
``benchmarks/baseline.py`` and fails when one has regressed more than 2x
against the committed ``BENCH_protocol.json`` (a live TCP frame is
gated on its count of Python calls instead, at 1.3x, and a packet under
a fault storm on its count of calendar events: a count does not depend
on the host). The 2x margin absorbs CI-machine noise while
still catching an accidentally reverted fast path (the crypto
optimisations are 4-6x, so losing one blows the gate; the simulator's
data path is a sum of small trims, so its gate catches a wholesale
revert or an accidental quadratic, not one lost trim).

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


def _assert_not_regressed(name: str, measured: float, committed: float, unit: str = "us"):
    limit = committed * REGRESSION_FACTOR
    assert measured <= limit, (
        f"{name} regressed: {measured:.0f}{unit} measured vs {committed:.0f}{unit} "
        f"committed baseline (>{REGRESSION_FACTOR}x; re-run `make bench` if this "
        f"is an intentional trade-off)"
    )


def test_sim_seal_unseal_within_2x_of_baseline(committed):
    measured = baseline.measure_seal_unseal_10k("sim", repeats=5, number=50)
    _assert_not_regressed("sim seal+unseal", measured, committed["sim_seal_unseal_10k_us"])


def test_dh_seal_unseal_within_2x_of_baseline(committed):
    measured = baseline.measure_seal_unseal_10k("dh", repeats=5, number=30)
    _assert_not_regressed("dh seal+unseal", measured, committed["dh_seal_unseal_10k_us"])


def test_dh_trial_peel_within_2x_of_baseline(committed):
    # 24 keys try one box: 22 of the 24 exponentiations walk the shared
    # window table of the ephemeral value instead of squaring it afresh
    # (~2.2x per trial with KDF and MAC), so losing the table trips this
    measured = baseline.measure_dh_trial_peel_us()
    _assert_not_regressed("dh trial peel", measured, committed["dh_trial_peel_us"])


def test_keystream_within_2x_of_baseline(committed):
    measured = baseline.measure_keystream_10k(repeats=5, number=200)
    _assert_not_regressed("keystream", measured, committed["keystream_10k_us"])


def test_snapshot_save_within_2x_of_baseline(committed):
    # the C pickler is ~5x the pure-Python one it replaced, so a revert trips this
    measured = baseline.measure_snapshot_save_ms()
    _assert_not_regressed("shard snapshot", measured, committed["snapshot_save_ms"], unit="ms")


def test_engine_events_within_2x_of_baseline(committed):
    # Raw events/s on a shared host swings 2x by itself (and the committed
    # number may come from a quicker host): the reading is scaled by how
    # much slower a fixed pure-Python kernel runs here and now than it
    # did next to the committed measurement.
    rate, kernel_us = baseline.measure_engine_with_host_kernel()
    measured = rate * kernel_us / committed["host_kernel_us"]
    floor = committed["engine_events_per_sec"] / REGRESSION_FACTOR
    assert measured >= floor, (
        f"bare engine regressed: {rate:.0f} events/s measured with the host kernel at "
        f"{kernel_us:.0f} us (committed {committed['host_kernel_us']:.0f} us), i.e. "
        f"{measured:.0f} events/s at the committed host speed, vs "
        f"{committed['engine_events_per_sec']:.0f} committed baseline (>{REGRESSION_FACTOR}x)"
    )


def test_segment_cost_within_2x_of_baseline(committed):
    measured = baseline.measure_segment_us(repeats=2)
    _assert_not_regressed("flood segment", measured, committed["segment_us"])


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
