"""Discrete-event network simulation substrate (Omnet++ substitute).

* :mod:`repro.simnet.engine` — calendar-queue event scheduler;
* :mod:`repro.simnet.network` — star topology with serializing 1 Gb/s
  up/downlinks and an ideal router (the paper's Section VI-A setting);
* :mod:`repro.simnet.faults` — seeded packet loss, outages, partitions
  and bandwidth degradation layered onto the star network;
* :mod:`repro.simnet.transport` — the TCP-like reliable FIFO per-pair
  delivery of paper footnote 6: direct on a star that can never lose a
  packet (sequenced where it can reorder one), an ARQ (per-segment
  ACKs, retransmission with backoff, Jacobson RTO) on every other;
* :mod:`repro.simnet.stats` — throughput meters and the count registry;
* :mod:`repro.simnet.trace` — structured protocol event tracing.
"""

from .engine import ScheduledEvent, SimulationError, Simulator
from .faults import DIRECTIONS, FaultInjector, Outage, Partition
from .network import DEFAULT_PROPAGATION_DELAY, GBPS, Link, Packet, StarNetwork
from .stats import LatencyMeter, StatsRegistry, ThroughputMeter, aggregate_stats_reports
from .trace import TraceEvent, Tracer
from .transport import Ack, ReliableTransport, Segment

__all__ = [
    "ScheduledEvent",
    "SimulationError",
    "Simulator",
    "DIRECTIONS",
    "FaultInjector",
    "Outage",
    "Partition",
    "DEFAULT_PROPAGATION_DELAY",
    "GBPS",
    "Link",
    "Packet",
    "StarNetwork",
    "Ack",
    "LatencyMeter",
    "StatsRegistry",
    "ThroughputMeter",
    "TraceEvent",
    "Tracer",
    "ReliableTransport",
    "Segment",
    "aggregate_stats_reports",
]
