"""Statistics the benchmark reports: percentiles with a sample-count
rule and peak memory."""

from __future__ import annotations

import math
import resource
from typing import List, Sequence, Tuple

__all__ = [
    "MIN_SAMPLES_BEYOND",
    "with_failures",
    "percentile",
    "tail_percentile",
    "peak_rss_mb",
    "finite",
]

#: A percentile is reported only when at least this many samples lie
#: beyond it; a p95 of 64 samples would rest on three of them. Ten is the
#: usual floor; with ten, the live workload's p95 of ~220 wall-clock
#: latencies spread 17-19% over ten runs, with twenty its p90 spreads 9%.
MIN_SAMPLES_BEYOND = 20

#: What an unbounded latency is printed as: JSON has no infinity.
UNBOUNDED_MS = 1e12


def with_failures(latencies: "Sequence[float]", attempted: int) -> "List[float]":
    """The latencies of all ``attempted`` operations: one that produced
    none (refused, lost) counts as +inf, so a failure can only push a
    percentile up."""
    if attempted < len(latencies):
        raise ValueError("more latencies than operations attempted")
    return list(latencies) + [math.inf] * (attempted - len(latencies))


def percentile(values: "Sequence[float]", q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; +inf sorts last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: "Sequence[float]", cap: int = 90) -> "Tuple[int, float]":
    """The highest whole percentile, at most ``cap``, that still has
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, and its value. With
    fewer than 40 samples the rule cannot be met above the median and p50
    is returned."""
    if not samples:
        raise ValueError("no operation attempted")
    supported = math.floor(100 * (1 - MIN_SAMPLES_BEYOND / len(samples)))
    q = max(50, min(cap, supported))
    return q, percentile(samples, q)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(value_ms: float) -> float:
    """A latency as JSON can carry it."""
    return value_ms if math.isfinite(value_ms) else UNBOUNDED_MS
