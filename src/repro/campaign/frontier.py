"""The accountability frontier: folding campaign cells into one verdict.

A finished campaign leaves one result-store record per cell. This
module folds every record into one :class:`Point` per cell — (strategy,
plan, topology, loss, coalition fraction), all seeds and group sizes
together — and walks the points into the report the ROADMAP asks for:
*where does accountability stay sound, where does detection degrade,
and what does active adversity cost anonymity?* Unilateral points
(fraction 0) walk the loss-intensity axis per (strategy, plan,
topology), and :class:`StrategyFrontier` finds:

* ``sound_up_to`` — the highest intensity at which every cell is clean
  (guilty convicted within the bound, zero honest evictions);
* ``degrade_onset`` — the lowest intensity with a missed detection
  (the guilty node outlived its detection bound);
* ``false_positive_onset`` — the lowest intensity with an honest
  eviction (adversity misread as misbehaviour — the failure mode the
  paper's accountability claim forbids);
* ``pollution_onset`` — the lowest intensity whose cells leave more
  than :data:`BLACKLIST_POLLUTION_THRESHOLD` honest-but-
  blacklisted entries per cell lingering at the horizon (the flooder
  finding from the first campaign matrix: pollution short of eviction
  is still an accountability cost, so it now participates in the
  SOUND/UNSOUND verdict instead of hiding in a metrics column);
* the anonymity entropy trend from the baseline intensity to the
  highest swept one (evictions shrink the posterior's support).

Coalition points (the ``coalition_fraction`` axis) walk the fraction
axis per (strategy, plan), and :class:`CoalitionFrontier` finds the
measured *soundness onset* — the first colluding fraction where an
honest node is evicted or the coalition escapes the detection bound —
and compares it against the paper's analytic f·G bound (the eviction
quorum is ``floor(f·G)+1`` distinct lists, so coalitions of ≤ f·G
members must be survivable).

Heterogeneous stores are fine: records from other experiments are
ignored, and records missing a campaign metric are counted as skipped
rather than crashing the fold (the same contract as
:meth:`repro.orchestrator.store.ResultStore.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.runner import Table
from ..orchestrator.store import ResultRecord, ResultStore
from .spec import CAMPAIGN_EXPERIMENT

__all__ = [
    "BLACKLIST_POLLUTION_THRESHOLD",
    "Point",
    "StrategyFrontier",
    "CoalitionFrontier",
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

#: Mean honest-node blacklist entries a unilateral cell may leave
#: lingering at the horizon before its point is judged UNSOUND. The
#: flooder measures ≈8 per cell at G=12 (pollution without a single
#: false eviction — the PR-6 finding); the threshold tolerates that
#: documented level but flags anything materially worse.
BLACKLIST_POLLUTION_THRESHOLD = 16.0


@dataclass
class Point:
    """All seeds/sizes of one (strategy, plan, topology, loss,
    fraction) cell, folded. A coalition point (``fraction > 0``) comes
    from a sweep holding group size, loss and topology at one value
    each (:class:`~repro.campaign.spec.CampaignSpec` enforces it)."""

    strategy: str
    plan: str
    topology: str
    loss: float
    fraction: float
    cells: int = 0
    honest_evictions: int = 0
    missed_detections: int = 0
    detected: int = 0
    detection_times: "List[float]" = field(default_factory=list)
    entropy_sum: float = 0.0
    accuracy_sum: float = 0.0
    blacklist_pollution: int = 0
    size: int = 0  # coalition members per cell
    nodes: int = 0  # population G
    relay_threshold: int = 0  # floor(f·G)+1 at the cell's config
    evicted_members: int = 0
    shuffle_rounds_min: int = 0

    def fold(self, record: ResultRecord) -> None:
        m = record.metrics
        self.cells += 1
        self.honest_evictions += int(m["honest_evictions"])
        self.missed_detections += int(m["missed_detections"])
        self.blacklist_pollution += int(m.get("blacklist_violations", 0))
        self.entropy_sum += float(m["anonymity_entropy_bits"])
        self.accuracy_sum += float(m.get("attribution_accuracy", 0.0))
        self.size = max(self.size, int(m.get("coalition_size", 0)))
        self.nodes = max(self.nodes, int(record.params.get("nodes", 0)))
        self.relay_threshold = max(
            self.relay_threshold, int(m.get("relay_threshold", 0))
        )
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
    def detection_required(self) -> int:
        """Cells that owed a conviction: all of them iff any cell either
        detected the deviant or was flagged for missing it."""
        return self.cells if self.detected or self.missed_detections else 0

    @property
    def mean_pollution(self) -> float:
        return self.blacklist_pollution / self.cells if self.cells else 0.0

    @property
    def polluted(self) -> bool:
        """Over the pollution threshold. Judged on unilateral points
        only: a coalition point is gated by the f·G bound alone."""
        return not self.fraction and self.mean_pollution > BLACKLIST_POLLUTION_THRESHOLD

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
        """More members than f·G (never true of a unilateral point)."""
        return self.size > self.relay_threshold - 1 if self.relay_threshold else False


def _onset(
    line: "List[Point]", axis: str, failed: "Callable[[Point], object]"
) -> "Optional[float]":
    """The lowest ``axis`` value on a sorted line whose point ``failed``
    (``None``: no point did)."""
    return next((getattr(p, axis) for p in line if failed(p)), None)


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

    @classmethod
    def walk(cls, points: "List[Point]") -> "List[StrategyFrontier]":
        """One line per (strategy, plan, topology) of the unilateral
        points, along the loss axis."""
        lines: "Dict[Tuple[str, str, str], List[Point]]" = {}
        for p in sorted((p for p in points if not p.fraction), key=lambda p: p.loss):
            lines.setdefault((p.strategy, p.plan, p.topology), []).append(p)
        frontiers = []
        for (strategy, plan, topology), line in lines.items():
            unsound = _onset(line, "loss", lambda p: not p.sound)
            sound = [p.loss for p in line if unsound is None or p.loss < unsound]
            frontiers.append(
                cls(
                    strategy=strategy,
                    plan=plan,
                    losses=[p.loss for p in line],
                    sound_up_to=sound[-1] if sound else None,
                    degrade_onset=_onset(line, "loss", lambda p: p.missed_detections),
                    false_positive_onset=_onset(line, "loss", lambda p: p.honest_evictions),
                    entropy_baseline=line[0].mean_entropy,
                    entropy_worst=line[-1].mean_entropy,
                    requires_detection=any(p.detection_required for p in line),
                    topology=topology,
                    pollution_onset=_onset(line, "loss", lambda p: p.polluted),
                )
            )
        return frontiers

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

    @classmethod
    def walk(cls, points: "List[Point]") -> "List[CoalitionFrontier]":
        """One line per (strategy, plan) of the coalition points, along
        the colluding-fraction axis."""
        lines: "Dict[Tuple[str, str], List[Point]]" = {}
        for p in sorted((p for p in points if p.fraction), key=lambda p: p.fraction):
            lines.setdefault((p.strategy, p.plan), []).append(p)
        return [
            cls(
                strategy=strategy,
                plan=plan,
                fractions=[p.fraction for p in line],
                fp_onset=_onset(line, "fraction", lambda p: p.honest_evictions),
                miss_onset=_onset(line, "fraction", lambda p: p.missed_detections),
                bound_fraction=max(p.bound_fraction for p in line),
                predicted_onset=max(p.relay_threshold for p in line)
                / (max(p.nodes for p in line) or 1),
            )
            for (strategy, plan), line in lines.items()
        ]

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
class FrontierReport:
    """The campaign verdict: points, both frontiers, and the gates."""

    points: "List[Point]"
    frontiers: "List[StrategyFrontier]"
    coalition_frontiers: "List[CoalitionFrontier]"
    skipped: int
    failed_cells: int
    foreign_records: int

    @property
    def coalition_points(self) -> "List[Point]":
        """The points on the colluding-fraction axis. They stay out of
        the baseline: mixing sub- and above-bound fractions into one
        loss point would turn an *expected* above-bound breakdown into
        a spurious baseline failure."""
        return [p for p in self.points if p.fraction]

    @property
    def baseline_points(self) -> "List[Point]":
        """The no-fault cells: plan ``none`` at the lowest swept loss."""
        none_points = [p for p in self.points if p.plan == "none" and not p.fraction]
        if not none_points:
            return []
        floor = min(p.loss for p in none_points)
        return [p for p in none_points if p.loss == floor]

    @property
    def sub_bound_sound(self) -> bool:
        """The coalition acceptance gate. At every colluding fraction
        the paper promises safety for (≤ f·G members): zero honest
        evictions on *every* plan, and — on the clean ``none`` plan —
        zero missed detections too. Missed detections under a fault
        storm below the bound are detection latency (the rotation +
        churn stretch conviction past the finite bound) and are
        reported in the frontier rather than failing the gate."""
        sub = [p for p in self.coalition_points if not p.above_bound]
        if not sub:
            return False
        if any(p.honest_evictions for p in sub):
            return False
        return all(
            p.missed_detections == 0 for p in sub if p.plan == "none"
        )

    @property
    def breakdowns(self) -> "List[Point]":
        """Above-bound points where soundness measurably failed."""
        return [p for p in self.points if p.above_bound and not p.sound]

    @property
    def baseline_ok(self) -> bool:
        """The acceptance gate: at baseline intensity every strategy's
        cells show zero honest evictions and zero missed detections.
        A pure coalition campaign (no classic cells) is instead gated
        on its sub-f·G fractions being sound."""
        baseline = self.baseline_points
        if not baseline:
            return self.sub_bound_sound
        return all(p.sound for p in baseline)

    def failures(self) -> "List[str]":
        """The one campaign gate (``campaign report --check`` and both
        committed frontier artefacts): no honest eviction in any
        unilateral cell or sub-f·G coalition cell, every sub-f·G
        coalition cell sound, the baseline sound. An above-bound
        coalition breakdown is the measurement, not a failure."""
        out: "List[str]" = []
        honest = sum(p.honest_evictions for p in self.points if not p.above_bound)
        if honest:
            out.append(f"{honest} honest eviction(s) recorded")
        if self.coalition_points and not self.sub_bound_sound:
            out.append("sub-f*G coalition cells are not sound")
        if not self.baseline_ok:
            out.append("baseline cells are not sound")
        return out

    def _render_coalition(self) -> str:
        """The coalition section: table, onset lines, gate, breakdowns."""
        points = self.coalition_points
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
        for p in sorted(points, key=lambda p: (p.strategy, p.plan, p.fraction)):
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
            for f in sorted(self.coalition_frontiers, key=lambda f: (f.strategy, f.plan))
        )
        lines.append("")
        sub = [p for p in points if not p.above_bound]
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

    def render(self) -> str:
        lines: "List[str]" = []
        unilateral = [p for p in self.points if not p.fraction]
        if unilateral:
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
                unilateral, key=lambda p: (p.strategy, p.plan, p.topology, p.loss)
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
            lines.append(
                f"  (blacklist-pollution threshold: {BLACKLIST_POLLUTION_THRESHOLD:g} "
                "lingering honest entries per cell)"
            )
            lines.append("")
        coalition = self.coalition_points
        if coalition:
            lines.append(self._render_coalition())
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
        elif coalition:
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


def build_frontier(store: ResultStore) -> FrontierReport:
    """Fold a result store's campaign records into the frontier: one
    loop, one :class:`Point` per cell key."""
    points: "Dict[Tuple[str, str, str, float, float], Point]" = {}
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
        key = (
            str(record.params.get("strategy", "honest")),
            str(record.params.get("plan", "none")),
            str(record.params.get("topology", "lan")),
            float(record.params.get("loss", 0.0)),
            float(record.params.get("coalition_fraction", 0.0)),
        )
        point = points.get(key)
        if point is None:
            point = points[key] = Point(*key)
        point.fold(record)

    folded = list(points.values())
    return FrontierReport(
        points=folded,
        frontiers=StrategyFrontier.walk(folded),
        coalition_frontiers=CoalitionFrontier.walk(folded),
        skipped=skipped,
        failed_cells=failed,
        foreign_records=foreign,
    )
