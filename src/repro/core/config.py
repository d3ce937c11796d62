"""Configuration of a RAC deployment.

Defaults follow the paper's evaluation (Section VI-B): L = 5 relays,
R = 7 rings, groups of 1000 nodes, 10 kB padded messages on 1 Gb/s
links. Tests and examples shrink these numbers; the benches restore
them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List

from ..simnet.network import DEFAULT_PROPAGATION_DELAY, GBPS

__all__ = [
    "RacConfig",
    "MISBEHAVIOUR_TIMERS",
    "TIMER_REGIMES",
    "WAN_ARQ",
    "timer_regime",
    "scale_timers",
    "TopologyTimerError",
    "TimerFloor",
    "timer_floors",
    "check_timers",
]


@dataclass
class RacConfig:
    """All tunables of one RAC system.

    Attributes mirror the paper's symbols: ``num_relays`` is L,
    ``num_rings`` is R, ``group_max``/``group_min`` bound the group
    size G (Section IV-C's ``smax``/``smin``).
    """

    # -- protocol shape (paper Section VI-B) --------------------------------
    num_relays: int = 5
    num_rings: int = 7
    group_min: int = 500
    group_max: int = 2000

    # -- traffic -------------------------------------------------------------
    #: Every broadcast is padded to exactly this many bytes (Section
    #: IV-C: padding defeats packet-size traffic analysis).
    message_size: int = 10_000
    #: Constant sending rate: one (data or noise) message per interval,
    #: in seconds. ``None`` lets :class:`repro.core.system.RacSystem`
    #: derive the saturation rate from the analytic capacity model.
    send_interval: "float | None" = 0.25
    #: Per-node cap of queued own messages before sends are refused.
    send_queue_limit: int = 1024
    #: Closed-loop backpressure: when set, a node defers its origination
    #: slot while its uplink backlog exceeds this many seconds of
    #: serialization time — "the highest possible throughput it can
    #: sustain" (Section III) found adaptively instead of from the
    #: analytic interval. ``None`` disables (open-loop, the default).
    adaptive_backlog_limit: "float | None" = None
    #: Safety factor applied to the derived saturation interval when
    #: ``send_interval`` is None: headers and control traffic consume a
    #: few percent of the link, and a demand of exactly 100% would grow
    #: queues without bound and trip the completeness timers.
    saturation_margin: float = 1.25

    # -- crypto ---------------------------------------------------------------
    #: Key backend: "sim" (fast, interface-faithful) or "dh" (real).
    key_backend: str = "sim"
    #: Group-assignment puzzle difficulty (bits). The paper's mk.
    puzzle_bits: int = 8

    # -- misbehaviour detection timers (seconds) -------------------------------
    #: How long a sender waits for each relay's re-broadcast (check 1).
    relay_timeout: float = 3.0
    #: How long a node waits for each predecessor's copy after first
    #: seeing a message (check 2).
    predecessor_timeout: float = 2.0
    #: A group predecessor must originate traffic at least once per this
    #: window (check 3), and at most ``rate_max_per_window`` times.
    rate_window: float = 2.0
    rate_max_per_window: int = 64
    #: Period of the anonymous (shuffled) relay-blacklist dissemination.
    blacklist_period: float = 5.0
    #: Retransmission attempts after a relay chain breaks (each retry
    #: builds a fresh path that excludes the blacklisted relay).
    max_send_retries: int = 5
    #: The paper's T: maximum time for a broadcast to reach the whole
    #: group. Joiners become usable as relays after 2T (Section IV-C).
    join_settle_time: float = 0.5
    #: Groups up to this size run the real cryptographic shuffle for
    #: blacklist dissemination; larger groups use the logical
    #: (permute-only) equivalent to keep simulations tractable.
    full_shuffle_max: int = 48

    # -- eviction thresholds ----------------------------------------------------
    #: Assumed fraction of opponent nodes, used to size thresholds: a
    #: relay is evicted on f*G+1 relay accusations, a predecessor on
    #: t+1 follower accusations (paper Section IV-C).
    assumed_opponent_fraction: float = 0.1

    # -- network -------------------------------------------------------------
    link_bandwidth_bps: float = GBPS
    #: Uniform per-packet extra propagation delay in [0, jitter]
    #: seconds. 0 reproduces the paper's ideal network; robustness
    #: tests raise it to check the timers tolerate variance.
    propagation_jitter: float = 0.0
    #: Per-link, per-packet Bernoulli drop probability. 0 reproduces
    #: the paper's lossless router (footnote 6 then holds trivially);
    #: anything above it makes the ARQ transport earn reliability.
    #: Scheduled outages/partitions are injected at runtime through
    #: :meth:`repro.core.system.RacSystem.inject_link_outage` and
    #: friends.
    link_loss_rate: float = 0.0

    # -- ARQ transport (the "TCP" of paper footnote 6) -------------------------
    #: Retransmission timeout before any RTT sample exists.
    transport_rto_initial: float = 0.05
    #: Clamp of the Jacobson RTO estimate (srtt + 4 * rttvar).
    transport_rto_min: float = 0.01
    transport_rto_max: float = 2.0
    #: Retransmissions per segment before the transport declares the
    #: peer unreachable (delivery-failure callback, never a silent
    #: wedge).
    transport_max_retries: int = 8

    # -- bookkeeping ------------------------------------------------------------
    #: Whether nodes keep full traces (protocol walkthroughs, tests).
    trace: bool = False
    #: Debug flag: round-trip every unicast payload through the binary
    #: wire codecs (:mod:`repro.core.wire`) and assert the encoded size
    #: matches what the node charged the network. Keeps the codecs
    #: load-bearing in simulation so codec/size drift is caught by the
    #: same runs that exercise the protocol. Off by default (it encodes
    #: every message twice).
    wire_check: bool = False
    #: Ticks between broadcast-state garbage collections (records older
    #: than every active timer are dropped). 0 disables GC.
    state_gc_ticks: int = 200

    def __post_init__(self) -> None:
        if self.num_relays < 1:
            raise ValueError("at least one relay is required (L >= 1)")
        if self.num_rings < 1:
            raise ValueError("at least one ring is required (R >= 1)")
        if self.group_min < 2:
            raise ValueError("groups need at least two nodes")
        if self.group_max < 2 * self.group_min:
            raise ValueError("group_max must be at least 2 * group_min")
        if self.message_size < 512:
            raise ValueError("padded size must leave room for onion layers")
        if not 0 <= self.assumed_opponent_fraction < 0.5:
            raise ValueError("the assumed opponent fraction must be in [0, 0.5)")
        if self.key_backend not in ("sim", "dh"):
            raise ValueError(f"unknown key backend {self.key_backend!r}")
        if not 0 <= self.link_loss_rate < 1:
            raise ValueError("link loss rate must be in [0, 1)")
        if not 0 < self.transport_rto_min <= self.transport_rto_initial <= self.transport_rto_max:
            raise ValueError("need 0 < transport_rto_min <= transport_rto_initial <= transport_rto_max")
        if self.transport_max_retries < 1:
            raise ValueError("the ARQ needs at least one retransmission attempt")

    @classmethod
    def paper(cls) -> "RacConfig":
        """The paper's evaluation configuration (Section VI-B)."""
        return cls()

    @classmethod
    def small(cls, **overrides) -> "RacConfig":
        """A downsized configuration for tests, examples and demos:
        2 relays, 3 rings, 2 kB messages, tight timers, one group."""
        base = dict(
            num_relays=2,
            num_rings=3,
            group_min=2,
            group_max=10**9,
            message_size=2048,
            send_interval=0.05,
            relay_timeout=1.0,
            predecessor_timeout=0.5,
            rate_window=1.0,
            blacklist_period=2.0,
            puzzle_bits=2,
        )
        base.update(overrides)
        return cls(**base)

    def saturation_interval(self, group_size: int) -> float:
        """Origination interval that saturates the uplinks.

        Each origination slot floods one padded message over the R
        rings: every group member transmits R copies of each of the G
        broadcasts originated per interval, so the per-member work per
        interval is R * G * M bytes, and the uplink is full when the
        interval equals that work's serialization time. (The (L+1)
        broadcasts per *anonymous message* then divide the delivered
        goodput down to the paper's C / ((L+1) R G) — DESIGN.md §4.)
        """
        work_bits = self.num_rings * group_size * self.message_size * 8
        return work_bits / self.link_bandwidth_bps

    def derived_send_interval(self, group_size: int) -> float:
        """The effective interval: configured, or saturation-derived."""
        if self.send_interval is not None:
            return self.send_interval
        return self.saturation_interval(max(2, group_size)) * self.saturation_margin

    def predecessor_accusation_threshold(self, domain_size: int) -> int:
        """Accusations needed to evict via follower reports: t + 1.

        t is the maximum number of opponent followers a node can have,
        estimated as ceil(f * R) capped at the successor-set size.
        """
        import math

        t = min(self.num_rings - 1, math.ceil(self.assumed_opponent_fraction * self.num_rings))
        return t + 1

    def relay_accusation_threshold(self, group_size: int) -> int:
        """Accusations needed to evict via relay reports: f*G + 1."""
        import math

        return math.floor(self.assumed_opponent_fraction * group_size) + 1


#: The misbehaviour timers: what :func:`scale_timers` scales and what a
#: fault plan's healing windows must stay under.
MISBEHAVIOUR_TIMERS = ("relay_timeout", "predecessor_timeout", "rate_window")

#: Named timer regimes (``RacConfig.small`` overrides), one per way the
#: timers relate to what a run throws at them; ``tests/unit/test_config.py``
#: holds every row to :func:`timer_floors`.
TIMER_REGIMES: "Dict[str, Dict[str, Any]]" = {
    # RacConfig.small's own sub-second timers: simulated clocks are
    # exact and the LAN star is lossless, so the timers sit at their
    # arithmetic floor and a deviant is convicted within a second.
    "tight": {},
    # Campaign cells and topology runs. 4 s clears every canned plan's
    # fault window at their horizons (horizon/6 = 2.7 s at 16 s) and
    # every preset's worst RTT + serialization slack (under 1 s), yet a
    # planted deviant is still convicted inside a 12-16 s cell. The ARQ
    # retransmits through an outage (64 x 0.25 s = 16 s) instead of
    # abandoning a copy, which would read as a missing copy forever.
    "detect": dict(
        relay_timeout=4.0,
        predecessor_timeout=4.0,
        rate_window=4.0,
        blacklist_period=1.5,
        transport_rto_max=0.25,
        transport_max_retries=64,
    ),
    # Chaos soaks and diurnal churn traces: *failure must heal faster
    # than accountability convicts*. 15 s sits above any canned plan's
    # window (4 s at the soak's 24 s horizon) and any reboot of the
    # churn trace (2.64 s), so a crash-restart or partition never reads
    # as freeriding. Convicting a deviant at these timers needs a much
    # longer horizon: this is the availability regime, not the
    # detection probe.
    "heal": dict(
        relay_timeout=15.0,
        predecessor_timeout=15.0,
        rate_window=15.0,
        blacklist_period=2.0,
        join_settle_time=0.2,
        transport_rto_max=0.25,
        transport_max_retries=64,
    ),
    # Wall-clock runs and the sim half of a parity pair. A 50 ms
    # simulated timer is exact; a 50 ms wall timer under load is not (a
    # relay 40 ms late is an innocent victim of the OS scheduler), so
    # slots are 100 ms and timers hold seconds of slack. The blacklist
    # shuffle is off: it is hosted by RacSystem, which the live runtime
    # does not replicate.
    "wall": dict(
        send_interval=0.1,
        relay_timeout=3.0,
        predecessor_timeout=1.5,
        rate_window=3.0,
        blacklist_period=0.0,
        join_settle_time=0.25,
    ),
}
# Wall-clock runs under injected faults, WAN shaping or membership
# churn: ``wall`` with misbehaviour timers far beyond any plan window or
# churn transient, so scheduler jitter plus scripted adversity can never
# fake freeriding.
TIMER_REGIMES["wall-heal"] = dict(
    TIMER_REGIMES["wall"],
    relay_timeout=60.0,
    predecessor_timeout=60.0,
    rate_window=60.0,
    transport_max_retries=64,
)

#: What topology runs add to a simulated regime: a WAN-sized RTO clamp
#: (planet-diurnal's worst acked round trip is 0.19 s, which the
#: regimes' 0.25 s clears with no headroom for queueing) and the
#: ``heal`` regime's shorter relay quarantine.
WAN_ARQ = dict(join_settle_time=0.2, transport_rto_max=0.5)


def timer_regime(name: str, **overrides) -> RacConfig:
    """``RacConfig.small`` under the named row of :data:`TIMER_REGIMES`."""
    if name not in TIMER_REGIMES:
        raise ValueError(
            f"unknown timer regime {name!r}; known regimes: " + ", ".join(TIMER_REGIMES)
        )
    return RacConfig.small(**{**TIMER_REGIMES[name], **overrides})


def scale_timers(config: RacConfig, factor: float) -> RacConfig:
    """The three misbehaviour timers scaled by ``factor`` — the knob
    the topology sweep turns to find each model's false-positive onset."""
    if factor <= 0:
        raise ValueError("timer scale must be positive")
    return dataclasses.replace(
        config, **{name: getattr(config, name) * factor for name in MISBEHAVIOUR_TIMERS}
    )


class TopologyTimerError(ValueError):
    """Timers that cannot survive the topology's worst-case path.

    On a LAN every copy arrives within microseconds of its
    serialization, but under a per-pair latency matrix a perfectly
    honest relay on the slowest path can take worst-RTT + serialization
    longer than the ideal. A misbehaviour timer below that slack *will*
    convict honest nodes; raising a typed error at bootstrap beats
    silently evicting whoever happens to live farthest away.
    """


@dataclass(frozen=True)
class TimerFloor:
    """One inequality of the timer contract: ``value >= floor``."""

    #: The RacConfig field, or ``transport_retry_budget`` for
    #: ``transport_max_retries * transport_rto_max``.
    timer: str
    term: str  # "lan" | "topology" | "window"
    value: float
    floor: float
    why: str
    #: ``value >= floor`` — or ``>`` for a window: a timer equal to a
    #: fault window fires at the instant the fault heals.
    met: bool


def timer_floors(config: RacConfig, interval: float, topology=None, plan=None) -> "List[TimerFloor]":
    """Every floor the run's timers must clear, as named terms.

    * **lan** — arithmetic of the protocol at origination ``interval``:
      an onion needs L+1 slots spread over distinct nodes' staggered
      schedules, so a ``relay_timeout`` below that budget would
      blacklist every honest relay; ring copies need two intervals; on
      a lossy network a lost copy reappears one RTO later and
      back-to-back losses cost a doubled RTO on top, so without that
      budget plain packet loss masquerades as freeriding.
    * **topology** — the LAN floors plus the worst round trip and two
      full-message serializations on the slowest access links of the
      :class:`repro.topo.model.TopologyModel` (the accusation path is a
      round trip of message-sized copies); the RTO clamp must sit above
      that round trip, or every packet on the slowest pair is
      retransmitted forever on a healthy network, and the retry budget
      must cover several, or one congested window reads as a dead peer.
      A necessary single-frame bound: ``results/topology_sweep.txt``
      measures how far queueing raises the real onset above it.
    * **window** — every healing fault window of the
      :class:`repro.chaos.plan.FaultPlan` must be shorter than the
      misbehaviour timers: an outage that heals before a timer fires
      cannot read as freeriding.
    """
    floors: "List[TimerFloor]" = []

    def need(timer: str, term: str, seconds: float, why: str, strict: bool = False) -> None:
        budget = config.transport_max_retries * config.transport_rto_max
        value = budget if timer == "transport_retry_budget" else getattr(config, timer)
        met = value > seconds if strict else value >= seconds
        floors.append(TimerFloor(timer, term, value, seconds, why, met))

    slots = (config.num_relays + 2) * interval
    need(
        "relay_timeout", "lan", slots,
        f"an L={config.num_relays} onion needs {config.num_relays + 2} origination slots "
        f"at send_interval={interval:.4g}s",
    )
    need("predecessor_timeout", "lan", 2 * interval,
         "ring copies need two origination intervals to arrive")
    if config.link_loss_rate > 0:
        need("predecessor_timeout", "lan", 4 * config.transport_rto_initial,
             "a lossy network needs a retransmission budget of 4 * transport_rto_initial")
    if topology is not None:
        worst_rtt = topology.worst_rtt() + 2 * DEFAULT_PROPAGATION_DELAY
        serialization = 2 * topology.worst_one_way_serialization(
            config.message_size, config.link_bandwidth_bps
        )
        slack = worst_rtt + serialization
        where = (
            f"topology {topology.name!r} adds worst RTT {worst_rtt * 1e3:.1f} ms + "
            f"serialization {serialization * 1e3:.1f} ms on the slowest access links"
        )
        need("relay_timeout", "topology", slots + slack, where)
        need("predecessor_timeout", "topology", 2 * interval + slack,
             where + "; distant ring copies would convict honest predecessors")
        need("transport_rto_max", "topology", slack,
             where + "; the ARQ would retransmit healthy paths forever")
        need("transport_retry_budget", "topology", 4 * slack,
             where + "; transport_max_retries x transport_rto_max must cover four of "
             "them before a slow path reads as a dead peer")
    if plan is not None:
        worst = max(
            (
                event.end - event.at
                for event in plan.events
                if event.kind in ("crash", "partition", "loss", "degrade")
                and event.end != float("inf")
            ),
            default=0.0,
        )
        for timer in MISBEHAVIOUR_TIMERS:
            need(
                timer, "window", worst,
                f"the fault plan has a {worst:.2f}s healing window; raise the misbehaviour "
                "timers (relay/predecessor/rate) above it so healing faults cannot be "
                "convicted as freeriding",
                strict=True,
            )
    return floors


def check_timers(config: RacConfig, interval: float, topology=None, plan=None) -> None:
    """Reject timers below any of :func:`timer_floors` — before the run,
    which beats debugging mass evictions after it. ``RacSystem``,
    ``LiveCluster`` and ``run_scenario`` share it: the same arithmetic
    on different clocks. A topology-term breach raises
    :class:`TopologyTimerError`, the others plain ``ValueError``."""
    for floor in timer_floors(config, interval, topology=topology, plan=plan):
        if not floor.met:
            error = TopologyTimerError if floor.term == "topology" else ValueError
            raise error(
                f"{floor.timer}={floor.value:g}s is below its {floor.term} floor of "
                f"{floor.floor:.4g}s: {floor.why}"
            )
