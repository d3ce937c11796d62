"""The accountability frontier: folding campaign cells into one verdict.

A finished campaign leaves one result-store record per cell. This
module folds them into the report the ROADMAP asks for — *where does
accountability stay sound, where does detection degrade, and what does
active adversity cost anonymity?* For every (strategy, fault-plan)
pair the aggregator walks the loss-intensity axis and finds:

* ``sound_up_to`` — the highest intensity at which every cell is clean
  (guilty convicted within the bound, zero honest evictions);
* ``degrade_onset`` — the lowest intensity with a missed detection
  (the guilty node outlived its detection bound);
* ``false_positive_onset`` — the lowest intensity with an honest
  eviction (adversity misread as misbehaviour — the failure mode the
  paper's accountability claim forbids);
* ``pollution_onset`` — the lowest intensity whose cells leave more
  than :data:`DEFAULT_BLACKLIST_POLLUTION_THRESHOLD` honest-but-
  blacklisted entries per cell lingering at the horizon (the flooder
  finding from the first campaign matrix: pollution short of eviction
  is still an accountability cost, so it now participates in the
  SOUND/UNSOUND verdict instead of hiding in a metrics column);
* the anonymity entropy trend from the baseline intensity to the
  highest swept one (evictions shrink the posterior's support).

Cells carrying the ``coalition_fraction`` axis fold into a separate
**coalition frontier**: per (strategy, plan) the fraction axis is
walked for the measured *soundness onset* — the first colluding
fraction where an honest node is evicted or the coalition escapes the
detection bound — and compared against the paper's analytic f·G bound
(the eviction quorum is ``floor(f·G)+1`` distinct lists, so coalitions
of ≤ f·G members must be survivable).

Heterogeneous stores are fine: records from other experiments are
ignored, and records missing a campaign metric are counted as skipped
rather than crashing the fold (the same contract as
:meth:`repro.orchestrator.store.ResultStore.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.runner import Table
from ..orchestrator.store import ResultRecord, ResultStore
from .spec import CAMPAIGN_EXPERIMENT

__all__ = [
    "DEFAULT_BLACKLIST_POLLUTION_THRESHOLD",
    "CellAggregate",
    "StrategyFrontier",
    "CoalitionAggregate",
    "CoalitionFrontier",
    "CoalitionReport",
    "FrontierReport",
    "build_frontier",
]

#: Metrics a record must carry to enter the fold.
_REQUIRED_METRICS = (
    "honest_evictions",
    "missed_detections",
    "detected",
    "anonymity_entropy_bits",
)

#: Mean honest-node blacklist entries a cell may leave lingering at the
#: horizon before its point is judged UNSOUND. The flooder measures ≈8
#: per cell at G=12 (pollution without a single false eviction — the
#: PR-6 finding); the default tolerates that documented level but flags
#: anything materially worse. Pass ``pollution_threshold=0`` to
#: :func:`build_frontier` for the strict verdict.
DEFAULT_BLACKLIST_POLLUTION_THRESHOLD = 16.0


@dataclass
class CellAggregate:
    """All seeds/sizes of one (strategy, plan, loss, topology) point,
    folded."""

    strategy: str
    plan: str
    loss: float
    topology: str = "lan"
    cells: int = 0
    honest_evictions: int = 0
    missed_detections: int = 0
    liveness_violations: int = 0
    detected: int = 0
    detection_required: int = 0
    detection_times: "List[float]" = field(default_factory=list)
    entropy_sum: float = 0.0
    accuracy_sum: float = 0.0
    blacklist_pollution: int = 0
    pollution_threshold: float = DEFAULT_BLACKLIST_POLLUTION_THRESHOLD

    def fold(self, record: ResultRecord) -> None:
        m = record.metrics
        self.cells += 1
        self.honest_evictions += int(m["honest_evictions"])
        self.missed_detections += int(m["missed_detections"])
        self.liveness_violations += int(m.get("liveness_violations", 0))
        self.blacklist_pollution += int(m.get("blacklist_violations", 0))
        self.entropy_sum += float(m["anonymity_entropy_bits"])
        self.accuracy_sum += float(m.get("attribution_accuracy", 0.0))
        if m["detected"] >= 1.0:
            self.detected += 1
            if m.get("detection_time_s", -1.0) >= 0.0:
                self.detection_times.append(float(m["detection_time_s"]))

    @property
    def mean_pollution(self) -> float:
        return self.blacklist_pollution / self.cells if self.cells else 0.0

    @property
    def polluted(self) -> bool:
        return self.mean_pollution > self.pollution_threshold

    @property
    def sound(self) -> bool:
        """Clean on every side: nobody honest convicted, nobody guilty
        missed, and honest blacklist pollution under the threshold."""
        return (
            self.honest_evictions == 0
            and self.missed_detections == 0
            and not self.polluted
        )

    @property
    def mean_entropy(self) -> float:
        return self.entropy_sum / self.cells if self.cells else 0.0

    @property
    def mean_accuracy(self) -> float:
        return self.accuracy_sum / self.cells if self.cells else 0.0

    @property
    def mean_detection_time(self) -> "Optional[float]":
        if not self.detection_times:
            return None
        return sum(self.detection_times) / len(self.detection_times)


@dataclass
class StrategyFrontier:
    """One (strategy, plan, topology) line of the accountability
    frontier: the loss-intensity walk under one network shape."""

    strategy: str
    plan: str
    losses: "List[float]"
    sound_up_to: "Optional[float]"  # None: unsound already at the lowest point
    degrade_onset: "Optional[float]"  # None: detection never degraded
    false_positive_onset: "Optional[float]"  # None: never went false-positive
    entropy_baseline: float
    entropy_worst: float
    requires_detection: bool
    topology: str = "lan"
    pollution_onset: "Optional[float]" = None  # None: pollution under threshold

    def describe(self) -> str:
        span = f"{self.strategy} under plan {self.plan}"
        if self.topology != "lan":
            span += f" on {self.topology}"
        span += ": "
        if self.sound_up_to is None:
            body = f"unsound already at {min(self.losses):.0%} loss"
        elif self.sound_up_to >= max(self.losses):
            body = f"sound across the whole swept range (up to {self.sound_up_to:.0%} loss)"
        else:
            body = f"sound up to {self.sound_up_to:.0%} loss"
        parts = [body]
        if self.degrade_onset is not None:
            parts.append(f"detection first degrades at {self.degrade_onset:.0%}")
        elif self.requires_detection:
            parts.append("detection never degrades")
        else:
            parts.append("no conviction required (undetectable deviation)")
        if self.false_positive_onset is not None:
            parts.append(f"false positives from {self.false_positive_onset:.0%}")
        else:
            parts.append("no false positives")
        if self.pollution_onset is not None:
            parts.append(
                f"blacklist pollution over threshold from {self.pollution_onset:.0%}"
            )
        parts.append(
            f"entropy {self.entropy_baseline:.2f}->{self.entropy_worst:.2f} bits"
        )
        return span + "; ".join(parts)


@dataclass
class CoalitionAggregate:
    """All seeds/plans' cells of one (strategy, plan, fraction) point."""

    strategy: str
    plan: str
    fraction: float
    cells: int = 0
    size: int = 0  # coalition members per cell
    nodes: int = 0  # population G
    relay_threshold: int = 0  # floor(f·G)+1 at the cell's config
    honest_evictions: int = 0
    missed_detections: int = 0
    detected: int = 0
    evicted_members: int = 0
    shuffle_rounds_min: int = 0
    detection_times: "List[float]" = field(default_factory=list)

    def fold(self, record: ResultRecord) -> None:
        m = record.metrics
        self.cells += 1
        self.size = max(self.size, int(m.get("coalition_size", 0)))
        self.nodes = max(self.nodes, int(record.params.get("nodes", 0)))
        self.relay_threshold = max(
            self.relay_threshold, int(m.get("relay_threshold", 0))
        )
        self.honest_evictions += int(m["honest_evictions"])
        self.missed_detections += int(m["missed_detections"])
        self.evicted_members += int(m.get("coalition_evicted", 0))
        rounds = int(m.get("shuffle_rounds", 0))
        self.shuffle_rounds_min = (
            rounds if self.cells == 1 else min(self.shuffle_rounds_min, rounds)
        )
        if m["detected"] >= 1.0:
            self.detected += 1
            if m.get("detection_time_s", -1.0) >= 0.0:
                self.detection_times.append(float(m["detection_time_s"]))

    @property
    def sound(self) -> bool:
        return self.honest_evictions == 0 and self.missed_detections == 0

    @property
    def bound_fraction(self) -> float:
        """The largest analytically safe colluding fraction, f·G / G:
        the quorum needs ``relay_threshold = floor(f·G)+1`` distinct
        lists, so ``relay_threshold - 1`` colluders are survivable."""
        if not self.nodes or not self.relay_threshold:
            return 0.0
        return (self.relay_threshold - 1) / self.nodes

    @property
    def above_bound(self) -> bool:
        return self.size > self.relay_threshold - 1 if self.relay_threshold else False

    @property
    def mean_detection_time(self) -> "Optional[float]":
        if not self.detection_times:
            return None
        return sum(self.detection_times) / len(self.detection_times)


@dataclass
class CoalitionFrontier:
    """One (strategy, plan) walk along the colluding-fraction axis."""

    strategy: str
    plan: str
    fractions: "List[float]"
    #: First swept fraction with an honest eviction — the *safety*
    #: onset (the coalition managed to frame someone out). ``None``:
    #: no honest node was ever evicted.
    fp_onset: "Optional[float]"
    #: First swept fraction with a missed detection — the *latency*
    #: onset (the coalition outlived the detection bound). ``None``:
    #: every detectable coalition was fully convicted in time.
    miss_onset: "Optional[float]"
    #: Largest analytically safe fraction (f·G members out of G).
    bound_fraction: float
    #: Predicted onset: the quorum-completing coalition, (f·G+1)/G.
    predicted_onset: float

    @property
    def measured_onset(self) -> "Optional[float]":
        """The first fraction with *any* unsoundness."""
        onsets = [o for o in (self.fp_onset, self.miss_onset) if o is not None]
        return min(onsets) if onsets else None

    @property
    def holds(self) -> bool:
        """Does the measurement respect the paper's bound?

        Safety must hold at every fraction ≤ f·G/G on every plan: no
        sub-bound coalition may evict an honest node. Full conviction
        inside the bound is additionally required on the clean plan
        (``none``); under a fault storm a sub-bound rotating coalition
        may legitimately outlive a *finite* detection bound — that is
        detection latency, reported but not a bound violation.
        """
        if self.fp_onset is not None and self.fp_onset <= self.bound_fraction:
            return False
        if (
            self.plan == "none"
            and self.miss_onset is not None
            and self.miss_onset <= self.bound_fraction
        ):
            return False
        return True

    def describe(self) -> str:
        span = f"{self.strategy} under plan {self.plan}: "
        onset = self.measured_onset
        if onset is None:
            body = (
                f"sound across the whole swept range "
                f"(up to {max(self.fractions):.1%} colluding)"
            )
        else:
            body = f"soundness breaks at {onset:.1%} colluding"
        parts = [body, f"paper bound f*G = {self.bound_fraction:.1%}"]
        if self.fp_onset is not None:
            parts.append(f"honest evictions from {self.fp_onset:.1%}")
        if self.miss_onset is not None:
            parts.append(f"detection overruns the bound from {self.miss_onset:.1%}")
        parts.append(
            "bound holds"
            if self.holds
            else "BOUND VIOLATED (unsound at or below f*G)"
        )
        if onset is not None:
            parts.append(f"predicted onset {self.predicted_onset:.1%}")
        return span + "; ".join(parts)


@dataclass
class CoalitionReport:
    """The coalition frontier: per-fraction aggregates plus verdicts."""

    points: "List[CoalitionAggregate]"
    frontiers: "List[CoalitionFrontier]"

    @property
    def sub_bound_sound(self) -> bool:
        """The coalition acceptance gate. At every colluding fraction
        the paper promises safety for (≤ f·G members): zero honest
        evictions on *every* plan, and — on the clean ``none`` plan —
        zero missed detections too. Missed detections under a fault
        storm below the bound are detection latency (the rotation +
        churn stretch conviction past the finite bound) and are
        reported in the frontier rather than failing the gate."""
        sub = [p for p in self.points if not p.above_bound]
        if not sub:
            return False
        if any(p.honest_evictions for p in sub):
            return False
        return all(
            p.missed_detections == 0 for p in sub if p.plan == "none"
        )

    @property
    def breakdowns(self) -> "List[CoalitionAggregate]":
        """Above-bound points where soundness measurably failed."""
        return [p for p in self.points if p.above_bound and not p.sound]

    def render(self) -> str:
        table = Table(
            headers=[
                "strategy",
                "plan",
                "fraction",
                "members",
                "cells",
                "honest evic",
                "missed",
                "evicted",
                "detected",
                "t_detect",
                "rounds",
                "verdict",
            ],
            title="coalition frontier: colluding fraction vs the f*G bound",
        )
        for p in sorted(self.points, key=lambda p: (p.strategy, p.plan, p.fraction)):
            t_detect = (
                f"{p.mean_detection_time:.2f}s"
                if p.mean_detection_time is not None
                else "-"
            )
            if p.sound:
                verdict = "SOUND"
            elif p.honest_evictions == 0:
                verdict = "LATE"  # convicted too slowly, nobody framed
            else:
                verdict = "UNSOUND"
            if p.above_bound:
                verdict += " (>f*G)"
            table.add_row(
                p.strategy,
                p.plan,
                f"{p.fraction:.1%}",
                f"{p.size}/{p.nodes}",
                p.cells,
                p.honest_evictions,
                p.missed_detections,
                f"{p.evicted_members}/{p.size * p.cells}",
                f"{p.detected}/{p.cells}",
                t_detect,
                f">={p.shuffle_rounds_min}",
                verdict,
            )
        lines = [table.render(), "", "coalition soundness onsets:"]
        lines.extend(
            "  " + f.describe()
            for f in sorted(self.frontiers, key=lambda f: (f.strategy, f.plan))
        )
        lines.append("")
        sub = [p for p in self.points if not p.above_bound]
        lines.append(
            f"sub-f*G cells ({sum(p.cells for p in sub)}): "
            + ("all SOUND" if self.sub_bound_sound else "UNSOUND — bound violated")
        )
        broken = self.breakdowns
        if broken:
            worst = sorted(
                broken, key=lambda p: (p.strategy, p.plan, p.fraction)
            )
            lines.append(
                "above-bound breakdowns: "
                + "; ".join(
                    f"{p.strategy}/{p.plan} at {p.fraction:.1%} "
                    f"({p.honest_evictions} honest evictions, "
                    f"{p.missed_detections} missed detections)"
                    for p in worst
                )
            )
        return "\n".join(lines)


@dataclass
class FrontierReport:
    """The campaign verdict: aggregates, frontiers, and the baseline."""

    points: "List[CellAggregate]"
    frontiers: "List[StrategyFrontier]"
    skipped: int
    failed_cells: int
    foreign_records: int
    #: Present when the store carried coalition cells (the
    #: ``coalition_fraction`` axis); those cells fold here, not into
    #: ``points`` — mixing sub- and above-bound fractions into one
    #: loss point would turn an *expected* above-bound breakdown into
    #: a spurious baseline failure.
    coalition: "Optional[CoalitionReport]" = None

    @property
    def baseline_points(self) -> "List[CellAggregate]":
        """The no-fault cells: plan ``none`` at the lowest swept loss."""
        none_points = [p for p in self.points if p.plan == "none"]
        if not none_points:
            return []
        floor = min(p.loss for p in none_points)
        return [p for p in none_points if p.loss == floor]

    @property
    def baseline_ok(self) -> bool:
        """The acceptance gate: at baseline intensity every strategy's
        cells show zero honest evictions and zero missed detections.
        A pure coalition campaign (no classic cells) is instead gated
        on its sub-f·G fractions being sound."""
        baseline = self.baseline_points
        if not baseline:
            return self.coalition is not None and self.coalition.sub_bound_sound
        return all(p.sound for p in baseline)

    def failures(self) -> "List[str]":
        """The one campaign gate (``campaign report --check`` and both
        committed frontier artefacts): no honest eviction in any
        unilateral cell or sub-f·G coalition cell, every sub-f·G
        coalition cell sound, the baseline sound. An above-bound
        coalition breakdown is the measurement, not a failure."""
        out: "List[str]" = []
        sub_bound = [] if self.coalition is None else [
            p for p in self.coalition.points if not p.above_bound
        ]
        honest = sum(p.honest_evictions for p in self.points + sub_bound)
        if honest:
            out.append(f"{honest} honest eviction(s) recorded")
        if self.coalition is not None and not self.coalition.sub_bound_sound:
            out.append("sub-f*G coalition cells are not sound")
        if not self.baseline_ok:
            out.append("baseline cells are not sound")
        return out

    def render(self) -> str:
        lines: "List[str]" = []
        if self.points:
            table = Table(
                headers=[
                    "strategy",
                    "plan",
                    "topology",
                    "loss",
                    "cells",
                    "honest evic",
                    "missed",
                    "pollution",
                    "detected",
                    "t_detect",
                    "entropy",
                    "attack acc",
                ],
                title="campaign matrix: strategies x fault plans x loss intensities",
            )
            for p in sorted(
                self.points, key=lambda p: (p.strategy, p.plan, p.topology, p.loss)
            ):
                detect = (
                    f"{p.detected}/{p.detection_required}"
                    if p.detection_required
                    else f"{p.detected}/-"
                )
                t_detect = (
                    f"{p.mean_detection_time:.2f}s"
                    if p.mean_detection_time is not None
                    else "-"
                )
                table.add_row(
                    p.strategy,
                    p.plan,
                    p.topology,
                    f"{p.loss:.0%}",
                    p.cells,
                    p.honest_evictions,
                    p.missed_detections,
                    f"{p.mean_pollution:.1f}" + ("!" if p.polluted else ""),
                    detect,
                    t_detect,
                    f"{p.mean_entropy:.2f}",
                    f"{p.mean_accuracy:.3f}",
                )
            lines.extend([table.render(), "", "accountability frontier:"])
            lines.extend(
                "  " + f.describe()
                for f in sorted(
                    self.frontiers, key=lambda f: (f.strategy, f.plan, f.topology)
                )
            )
            threshold = self.points[0].pollution_threshold
            lines.append(
                f"  (blacklist-pollution threshold: {threshold:g} lingering "
                "honest entries per cell)"
            )
            lines.append("")
        if self.coalition is not None:
            lines.append(self.coalition.render())
            lines.append("")
        baseline = self.baseline_points
        if baseline:
            he = sum(p.honest_evictions for p in baseline)
            md = sum(p.missed_detections for p in baseline)
            polluted = sum(1 for p in baseline if p.polluted)
            lines.append(
                f"baseline (plan none @ {baseline[0].loss:.0%} loss): "
                f"{sum(p.cells for p in baseline)} cells, {he} honest-eviction "
                f"cells, {md} missed-detection cells, {polluted} over the "
                "pollution threshold -> "
                + ("SOUND" if self.baseline_ok else "UNSOUND")
            )
        elif self.coalition is not None:
            lines.append(
                "baseline (coalition sub-f*G fractions): "
                + ("SOUND" if self.baseline_ok else "UNSOUND")
            )
        else:
            lines.append("baseline (plan none): no cells recorded -> UNSOUND")
        if self.failed_cells:
            lines.append(f"failed cells (no metrics): {self.failed_cells}")
        if self.skipped:
            lines.append(f"records skipped (missing campaign metrics): {self.skipped}")
        return "\n".join(lines)


def build_frontier(
    store: ResultStore,
    *,
    pollution_threshold: float = DEFAULT_BLACKLIST_POLLUTION_THRESHOLD,
) -> FrontierReport:
    """Fold a result store's campaign records into the frontier."""
    grouped: "Dict[Tuple[str, str, float, str], CellAggregate]" = {}
    coalition_grouped: "Dict[Tuple[str, str, float], CoalitionAggregate]" = {}
    skipped = failed = foreign = 0
    for record in store.latest().values():
        if record.experiment != CAMPAIGN_EXPERIMENT:
            foreign += 1
            continue
        if record.status != "ok":
            failed += 1
            continue
        if any(name not in record.metrics for name in _REQUIRED_METRICS):
            skipped += 1
            continue
        fraction = float(record.params.get("coalition_fraction", 0.0))
        if fraction > 0.0:
            ckey = (
                str(record.params.get("strategy", "honest")),
                str(record.params.get("plan", "none")),
                fraction,
            )
            cpoint = coalition_grouped.get(ckey)
            if cpoint is None:
                cpoint = coalition_grouped[ckey] = CoalitionAggregate(*ckey)
            cpoint.fold(record)
            continue
        key = (
            str(record.params.get("strategy", "honest")),
            str(record.params.get("plan", "none")),
            float(record.params.get("loss", 0.0)),
            str(record.params.get("topology", "lan")),
        )
        point = grouped.get(key)
        if point is None:
            point = grouped[key] = CellAggregate(
                *key, pollution_threshold=pollution_threshold
            )
        point.fold(record)
        point.detection_required += (
            1 if record.metrics.get("detection_time_s") is not None
            and record.metrics["missed_detections"] + record.metrics["detected"] >= 1.0
            else 0
        )

    # detection_required above is heuristic for mixed stores; recompute
    # it exactly: a point requires detection iff any of its cells either
    # detected the deviant or was flagged for missing it.
    for point in grouped.values():
        point.detection_required = point.cells if (
            point.detected or point.missed_detections
        ) else 0

    frontiers: "List[StrategyFrontier]" = []
    by_pair: "Dict[Tuple[str, str, str], List[CellAggregate]]" = {}
    for (strategy, plan, _loss, topology), point in grouped.items():
        by_pair.setdefault((strategy, plan, topology), []).append(point)
    for (strategy, plan, topology), points in by_pair.items():
        points.sort(key=lambda p: p.loss)
        losses = [p.loss for p in points]
        sound_up_to: "Optional[float]" = None
        for p in points:
            if p.sound:
                sound_up_to = p.loss
            else:
                break
        degrade = next((p.loss for p in points if p.missed_detections), None)
        false_pos = next((p.loss for p in points if p.honest_evictions), None)
        pollution = next((p.loss for p in points if p.polluted), None)
        frontiers.append(
            StrategyFrontier(
                strategy=strategy,
                plan=plan,
                losses=losses,
                sound_up_to=sound_up_to,
                degrade_onset=degrade,
                false_positive_onset=false_pos,
                entropy_baseline=points[0].mean_entropy,
                entropy_worst=points[-1].mean_entropy,
                requires_detection=any(p.detection_required for p in points),
                topology=topology,
                pollution_onset=pollution,
            )
        )

    coalition: "Optional[CoalitionReport]" = None
    if coalition_grouped:
        cfrontiers: "List[CoalitionFrontier]" = []
        by_strategy: "Dict[Tuple[str, str], List[CoalitionAggregate]]" = {}
        for (strategy, plan, _fraction), cpoint in coalition_grouped.items():
            by_strategy.setdefault((strategy, plan), []).append(cpoint)
        for (strategy, plan), cpoints in by_strategy.items():
            cpoints.sort(key=lambda p: p.fraction)
            fp = next((p.fraction for p in cpoints if p.honest_evictions), None)
            miss = next((p.fraction for p in cpoints if p.missed_detections), None)
            bound = max(p.bound_fraction for p in cpoints)
            threshold = max(p.relay_threshold for p in cpoints)
            nodes = max(p.nodes for p in cpoints) or 1
            cfrontiers.append(
                CoalitionFrontier(
                    strategy=strategy,
                    plan=plan,
                    fractions=[p.fraction for p in cpoints],
                    fp_onset=fp,
                    miss_onset=miss,
                    bound_fraction=bound,
                    predicted_onset=threshold / nodes,
                )
            )
        coalition = CoalitionReport(
            points=list(coalition_grouped.values()), frontiers=cfrontiers
        )

    return FrontierReport(
        points=list(grouped.values()),
        frontiers=frontiers,
        skipped=skipped,
        failed_cells=failed,
        foreign_records=foreign,
        coalition=coalition,
    )
