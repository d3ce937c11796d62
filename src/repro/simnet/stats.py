"""Measurement helpers for simulations.

The paper's headline metric is *"the average throughput at which nodes
receive anonymous messages"* (Section III). :class:`ThroughputMeter`
measures exactly that; :class:`Counter` and :class:`StatsRegistry`
collect the secondary counts (messages forwarded, noise sent,
evictions, ...) that the tests and benches assert on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "ThroughputMeter",
    "LatencyMeter",
    "Counter",
    "StatsRegistry",
    "engine_counters",
    "aggregate_stats_reports",
    "summarize",
]


def engine_counters(sim) -> "Dict[str, int]":
    """Calendar-queue health counters of a :class:`~repro.simnet.engine.Simulator`.

    ``sim_events_cancelled`` vs ``sim_queue_compactions`` is the leak
    gauge: before compaction existed, every cancelled ARQ retransmit
    timer sat in the heap until it surfaced at the head.
    """
    return {
        "sim_events_processed": sim.events_processed,
        "sim_events_cancelled": sim.events_cancelled,
        "sim_queue_compactions": sim.queue_compactions,
        "sim_queue_pending": sim.pending_events(),
    }


def aggregate_stats_reports(reports: "Iterable[Mapping[str, float]]") -> "Dict[str, float]":
    """Sum per-shard ``stats_report`` dicts into one deployment view.

    A sharded run (:mod:`repro.simnet.shard`) has one engine per shard;
    the coordinator's own simulator processes no protocol events, so a
    deployment-wide report must sum the shards' counters —
    ``sim_events_processed`` / ``sim_events_cancelled`` /
    ``sim_queue_compactions`` included — rather than echoing any single
    engine. Every key is summed; keys missing from some shards count as
    zero there (shards legitimately differ, e.g. only one hosts the
    deviant's group).
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
    every node of a large simulation carries one of these meters, and
    at 1024+ nodes the per-tuple object overhead dominated the meter's
    footprint.
    """

    __slots__ = ("_times", "_bytes", "total_bytes", "count")

    def __init__(self) -> None:
        self._times = array("d")
        self._bytes = array("q")
        self.total_bytes = 0
        self.count = 0

    @property
    def samples(self) -> "List[Tuple[float, int]]":
        return list(zip(self._times, self._bytes))

    def record(self, now: float, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot record negative bytes")
        self._times.append(now)
        self._bytes.append(nbytes)
        self.total_bytes += nbytes
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

    def deliveries(self, start: float = 0.0, end: "float | None" = None) -> int:
        horizon = end if end is not None else float("inf")
        return sum(1 for t in self._times if start <= t <= horizon)


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

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(len(self.samples)),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": max(self.samples) if self.samples else 0.0,
        }


@dataclass(slots=True)
class Counter:
    """A named monotonic counter."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class StatsRegistry:
    """A bag of named counters shared across a simulation's nodes."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    #: The :class:`~repro.simnet.transport.ReliableTransport` counting
    #: into this registry (it binds itself): its per-segment tallies are
    #: plain ints there and are read here, not pushed per segment.
    transport: Any = None

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def add(self, name: str, amount: int = 1) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        c.value += amount

    def value(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.value if counter is not None else self.as_dict().get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        values = {name: c.value for name, c in self.counters.items()}
        transport = self.transport
        if transport is not None:
            for name in ("segments_sent", "acks_sent", "rtt_samples", "rtt_us_total"):
                tally = getattr(transport, name)
                if tally:  # absent while zero, like any counter
                    values["transport_" + name] = tally
        return dict(sorted(values.items()))


def summarize(values: "list[float]") -> Dict[str, float]:
    """Minimal summary statistics (mean/min/max) without numpy."""
    if not values:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "count": 0}
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "count": len(values),
    }
