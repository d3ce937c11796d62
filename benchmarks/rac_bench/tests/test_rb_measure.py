"""The percentile rule and the host-speed correction."""

import math

import pytest

from hostclock import KERNEL_REF_S, HostClock
from measure import MIN_SAMPLES_BEYOND, finite, percentile, tail_percentile, with_failures


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([3.0], 95) == 3.0


@pytest.mark.parametrize(
    "n, expected",
    [(272, 90), (200, 90), (160, 87), (64, 68), (40, 50), (8, 50)],
)
def test_tail_is_the_highest_percentile_with_enough_samples_beyond(n, expected):
    q, _value = tail_percentile([float(i) for i in range(n)])
    assert q == expected
    if q > 50:
        assert n - math.ceil(q / 100 * n) >= MIN_SAMPLES_BEYOND


def test_failures_count_as_unbounded_latencies():
    delivered = [0.1] * 180
    samples = with_failures(delivered, attempted=200)
    assert len(samples) == 200
    assert tail_percentile(samples) == (90, 0.1)  # twenty failures sit exactly beyond p90
    _q, value = tail_percentile(with_failures(delivered[:-1], attempted=200))
    assert math.isinf(value)
    assert finite(value * 1e3) == 1e12
    with pytest.raises(ValueError):
        with_failures(delivered, attempted=10)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_corrected_time_divides_each_gap_by_its_slowdown():
    clock = HostClock.__new__(HostClock)
    k = KERNEL_REF_S
    # Kernel runs (wall start, wall end, cpu start, cpu end): quiet, quiet,
    # then twice as slow. Program time sits between them.
    clock._samples = [
        (0.0, k, 0.0, k),
        (1.0 + k, 1.0 + 2 * k, 1.0 + k, 1.0 + 2 * k),
        (2.0 + 2 * k, 2.0 + 4 * k, 2.0 + 2 * k, 2.0 + 4 * k),
        (3.0 + 4 * k, 3.0 + 6 * k, 3.0 + 4 * k, 3.0 + 6 * k),
    ]
    raw, corrected = clock.wall(k, 3.0 + 4 * k)
    assert raw == pytest.approx(3.0)
    # 1 s at slowdown 1, 1 s at 1.5 (mean of the two ends), 1 s at 2.
    assert corrected == pytest.approx(1.0 + 1.0 / 1.5 + 0.5)
    assert clock.cpu(k, 3.0 + 4 * k) == pytest.approx((raw, corrected))
    # Half of the last gap only.
    raw, corrected = clock.wall(2.5 + 4 * k, 3.0 + 4 * k)
    assert (raw, corrected) == (pytest.approx(0.5), pytest.approx(0.25))
    # Idle time is not corrected: a gap that was half sleep at slowdown 2.
    clock._samples = [(0.0, 2 * k, 0.0, 2 * k), (1.0 + 2 * k, 1.0 + 4 * k, 0.5 + 2 * k, 0.5 + 4 * k)]
    assert clock.wall(2 * k, 1.0 + 2 * k) == (pytest.approx(1.0), pytest.approx(0.5 + 0.25))
    assert clock.cpu(2 * k, 1.0 + 2 * k) == (pytest.approx(0.5), pytest.approx(0.25))
    clock._samples = [(0.0, k, 0.0, k), (1.0 + k, 1.0 + 2 * k, 1.0 + k, 1.0 + 2 * k)]
    # Before the first sample there is nothing to correct with.
    raw, corrected = clock.wall(-0.5, 0.0)
    assert (raw, corrected) == (pytest.approx(0.5), pytest.approx(0.5))


def test_the_clock_samples_while_the_program_runs():
    import time

    clock = HostClock(period=0.02)
    clock.start()
    _, started = clock.sample()
    until = time.perf_counter() + 0.2
    while time.perf_counter() < until:
        pass
    ended, _ = clock.sample()
    clock.stop()
    assert len(clock.kernel_times()) >= 8
    raw, corrected = clock.wall(started, ended)
    # The kernel's own time is excluded from the interval.
    assert raw < ended - started
    assert raw == pytest.approx(0.2 - sum(clock.kernel_times()[2:-2]), abs=0.03)
    assert clock.cpu(started, ended)[0] == pytest.approx(raw, abs=0.03)
    assert 0.3 < corrected / raw < 3.0
