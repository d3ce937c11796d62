"""The WAN topology sweep (results/topology_sweep.txt).

One row per canned :mod:`repro.topo.model` preset, everything measured
on the deterministic substrate against the ``lan`` baseline (which is
byte-identical to the paper's uniform star):

* **performance** — delivery latency (mean / p95) and anonymous
  throughput under the model's delay matrix and access classes;
* **eviction accuracy, missed-detection side** — a planted
  forward-dropper's detection time at nominal timers, and the *detect
  margin*: how far the timers could stretch before detection would
  outlive the bound (detection time scales linearly with the timers,
  so margin = bound / measured time);
* **eviction accuracy, false-positive side** — the misbehaviour timers
  shrunk (×0.5 … ×0.06) with the topology timer contract deliberately
  bypassed (``enforce_contract=False``) until honest nodes are first
  suspected and then convicted: the *measured false-positive onsets*.
  The analytic contract floor (the smallest scale the topology term of
  :func:`repro.core.config.timer_floors` accepts) is printed next to
  them. The floor is a *necessary* condition — a
  single-frame worst case (RTT + two serializations); on
  bandwidth-tiered presets, queueing under sustained traffic pushes
  the measured onset above it, which is exactly what this sweep
  quantifies: the committed numbers show every measured onset at or
  below ×0.12 of the 4 s defaults, an 8× margin at nominal timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.config import MISBEHAVIOUR_TIMERS, RacConfig, timer_floors
from ..scenario import Outcome, run_params
from ..topo.model import PRESET_NAMES, TopologyModel, preset

__all__ = [
    "SweepRow",
    "TopologySweep",
    "contract_floor_scale",
    "sweep_topologies",
    "artefact",
]

NODES = 10
HORIZON = 12.0
SEED = 0
DEVIANT = "forward-dropper"

#: Timer-shrink probes (descending): where do false positives start?
FP_SCALES: "Tuple[float, ...]" = (0.5, 0.25, 0.12, 0.06)


def contract_floor_scale(model: TopologyModel, config: RacConfig, interval: float) -> float:
    """The smallest timer scale the topology contract accepts: the
    point on the scale axis the sweep probes empirically where the
    tightest scaled timer meets its floor."""
    return max(
        floor.floor / floor.value
        for floor in timer_floors(config, interval, topology=model)
        if floor.timer in MISBEHAVIOUR_TIMERS
    )


@dataclass
class SweepRow:
    """One preset's measured line of the sweep."""

    name: str
    fingerprint: str
    worst_rtt_ms: float
    deliveries: int
    latency_mean_ms: float
    latency_p95_ms: float
    throughput_bps: float
    honest_evictions: int
    detection_time_s: "Optional[float]"
    #: bound / detection time: the factor the timers could stretch
    #: before the deviant would outlive the detection bound. None when
    #: the deviant was already missed at nominal timers.
    detect_margin: "Optional[float]"
    suspicion_onset: "Optional[float]"  # timer scale, None: never suspected
    fp_eviction_onset: "Optional[float]"  # timer scale, None: never convicted
    contract_floor: float


@dataclass
class TopologySweep:
    rows: "List[SweepRow]"

    @property
    def baseline(self) -> SweepRow:
        return next(row for row in self.rows if row.name == "lan")

    def render(self) -> str:
        base = self.baseline
        lines = [
            "WAN topology sweep",
            "==================",
            "",
            f"{NODES} nodes, {HORIZON:g}s horizon, seed {SEED}; deviant runs plant "
            f"a {DEVIANT}; deltas are vs the lan baseline",
            "(the lan preset is byte-identical to the bare star — `repro topo verify`)",
            "",
            f"{'topology':<16} {'rtt_ms':>7} {'lat_ms':>8} {'p95_ms':>8} "
            f"{'d_lat':>8} {'thr_bps':>8} {'d_thr':>7} {'deliv':>5} {'t_detect':>8}",
        ]
        for row in self.rows:
            d_lat = row.latency_mean_ms - base.latency_mean_ms
            d_thr = row.throughput_bps - base.throughput_bps
            t_detect = (
                f"{row.detection_time_s:.2f}s" if row.detection_time_s is not None else "missed"
            )
            lines.append(
                f"{row.name:<16} {row.worst_rtt_ms:>7.1f} {row.latency_mean_ms:>8.2f} "
                f"{row.latency_p95_ms:>8.2f} {d_lat:>+8.2f} {row.throughput_bps:>8.0f} "
                f"{d_thr:>+7.0f} {row.deliveries:>5} {t_detect:>8}"
            )
        lines += [
            "",
            "eviction accuracy: onsets on the timer-scale axis",
            "(fp probes bypass the topology timer contract — enforce_contract=False;",
            " 'scale' multiplies relay/predecessor/rate timers of the 4s defaults)",
            "",
            f"{'topology':<16} {'detect_margin':>13} {'suspect@':>9} {'fp_evict@':>9} "
            f"{'floor(analytic)':>15}",
        ]
        for row in self.rows:
            margin = f"x{row.detect_margin:.2f}" if row.detect_margin else "missed@x1"
            suspect = f"x{row.suspicion_onset:g}" if row.suspicion_onset else "-"
            fp = f"x{row.fp_eviction_onset:g}" if row.fp_eviction_onset else "-"
            lines.append(
                f"{row.name:<16} {margin:>13} {suspect:>9} {fp:>9} "
                f"{'x%.3g' % row.contract_floor:>15}"
            )
        lines += [
            "",
            "reading: every honest run above keeps zero honest evictions at nominal",
            "timers (x1.0). detect_margin is how far the timers could stretch before",
            "the planted deviant would outlive the detection bound; suspect@/fp_evict@",
            "are the measured false-positive onsets (timer scales at which honest",
            "nodes are first blacklisted / first convicted). floor(analytic) is the",
            "smallest scale the TopologyTimerError contract accepts — a necessary,",
            "single-frame bound (worst RTT + two serializations). On bandwidth-tiered",
            "presets queueing under sustained traffic raises the measured onset above",
            "that floor; nominal timers keep an >=8x margin over every measured onset.",
            "",
            "model fingerprints:",
        ]
        lines.extend(f"  {row.name:<16} {row.fingerprint}" for row in self.rows)
        return "\n".join(lines) + "\n"


def _run(model: TopologyModel, **params) -> Outcome:
    params.update(topology=model.name, nodes=NODES, horizon=HORIZON)
    return run_params(params, SEED, "topo")


def _measure(model: TopologyModel) -> SweepRow:
    honest = _run(model)
    deviant = _run(model, deviant=DEVIANT)

    detect_margin: "Optional[float]" = None
    if deviant.detection_time_s is not None:
        detect_margin = HORIZON / deviant.detection_time_s

    suspicion_onset: "Optional[float]" = None
    fp_onset: "Optional[float]" = None
    for scale in FP_SCALES:
        probe = _run(model, timer_scale=scale, enforce_contract=False)
        if suspicion_onset is None and not probe.ok:
            suspicion_onset = scale
        if fp_onset is None and probe.honest_evictions:
            fp_onset = scale
        if fp_onset is not None:
            break

    config = honest.scenario.configuration()
    interval = config.derived_send_interval(NODES)
    return SweepRow(
        name=model.name,
        fingerprint=model.fingerprint(),
        worst_rtt_ms=model.worst_rtt() * 1e3,
        deliveries=len(honest.deliveries),
        latency_mean_ms=honest.latency_mean_s * 1e3,
        latency_p95_ms=honest.latency_p95_s * 1e3,
        throughput_bps=honest.throughput_bps,
        honest_evictions=honest.honest_evictions,
        detection_time_s=deviant.detection_time_s,
        detect_margin=detect_margin,
        suspicion_onset=suspicion_onset,
        fp_eviction_onset=fp_onset,
        contract_floor=contract_floor_scale(model, config, interval),
    )


def sweep_topologies() -> TopologySweep:
    """Measure every preset."""
    return TopologySweep(rows=[_measure(preset(name, NODES, seed=0)) for name in PRESET_NAMES])


def artefact() -> "Tuple[List[str], List[str]]":
    sweep = sweep_topologies()
    return [sweep.render()], [
        f"{row.name}: {row.honest_evictions} honest eviction(s) at nominal timers"
        for row in sweep.rows
        if row.honest_evictions
    ]
