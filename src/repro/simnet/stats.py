"""Measurement helpers for simulations.

The paper's headline metric is *"the average throughput at which nodes
receive anonymous messages"* (Section III). :class:`ThroughputMeter`
measures exactly that; :class:`StatsRegistry` collects the secondary
counts (messages forwarded, noise sent, evictions, ...) that the tests
and benches assert on, and is the only store of a protocol count on
each substrate.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Mapping

__all__ = [
    "ThroughputMeter",
    "LatencyMeter",
    "StatsRegistry",
    "engine_counters",
    "aggregate_stats_reports",
]


def engine_counters(sim) -> "Dict[str, int]":
    """Calendar-queue health counters of a :class:`~repro.simnet.engine.Simulator`.

    ``sim_events_cancelled`` vs ``sim_queue_compactions`` is the leak
    gauge: before compaction existed, every cancelled timer sat in the
    heap until it surfaced at the head. Both read 0 on a simulation,
    which cancels nothing since the ARQ keeps reserved keys.
    """
    return {
        "sim_events_processed": sim.events_processed,
        "sim_events_cancelled": sim.events_cancelled,
        "sim_queue_compactions": sim.queue_compactions,
        "sim_queue_pending": sim.pending_events(),
    }


def aggregate_stats_reports(reports: "Iterable[Mapping[str, float]]") -> "Dict[str, float]":
    """Sum per-shard (or per-node) count dicts into one deployment view.

    A sharded run (:mod:`repro.simnet.shard`) has one engine per shard;
    the coordinator's own simulator processes no protocol events, so a
    deployment-wide report must sum the shards' counters —
    ``sim_events_processed`` / ``sim_events_cancelled`` /
    ``sim_queue_compactions`` included — rather than echoing any single
    engine. Every key is summed; keys missing from some shards count as
    zero there (shards legitimately differ, e.g. only one hosts the
    deviant's group). A live cluster sums its nodes' registries, and a
    restarted node's incarnations, the same way.
    """
    merged: "Dict[str, float]" = {}
    for report in reports:
        for key, value in report.items():
            merged[key] = merged.get(key, 0) + value
    return merged


class ThroughputMeter:
    """Records (time, bytes) delivery samples and reports rates.

    Rates can be computed over the whole run or over a trailing
    warm-up-excluded window, which is what the benches use: start-up
    transients (empty pipelines) would otherwise bias the average.

    Samples live in two parallel typed arrays, not a list of tuples:
    a long run records one sample per delivery, and the per-tuple
    object overhead would dominate the meter's footprint.
    """

    __slots__ = ("_times", "_bytes", "count")

    def __init__(self) -> None:
        self._times = array("d")
        self._bytes = array("q")
        self.count = 0

    def record(self, now: float, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot record negative bytes")
        self._times.append(now)
        self._bytes.append(nbytes)
        self.count += 1

    def throughput_bps(self, start: float = 0.0, end: "float | None" = None) -> float:
        """Average delivery rate in bits/s over ``[start, end]``."""
        if not self._times:
            return 0.0
        horizon = end if end is not None else self._times[-1]
        window = horizon - start
        if window <= 0:
            return 0.0
        in_window = sum(
            nbytes for t, nbytes in zip(self._times, self._bytes) if start <= t <= horizon
        )
        return in_window * 8 / window


class LatencyMeter:
    """Records per-message latencies and reports distribution stats."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples = array("d")

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.samples.append(latency)

    def __len__(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, int(round(q / 100 * len(ordered))))
        return ordered[min(rank, len(ordered)) - 1]


class StatsRegistry:
    """Named protocol counts, a dict of ints.

    One registry per substrate instance: a simulated system's
    (:class:`~repro.core.system.RacSystem`, shared by its nodes) or a
    live node's (:class:`~repro.live.environment.LiveEnvironment`). A
    component's own tallies (the ARQ's, the network's, the engine's)
    stay on the component and are named in ``stats_report()``.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def value(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(sorted(self.counts.items()))
