"""CampaignSpec: the declarative strategies × faults × networks matrix.

A campaign is the cross-product the ROADMAP calls for — every
misbehaviour the repo can plant (:mod:`repro.freeride.registry`) ×
every canned fault timeline (:mod:`repro.chaos.plan`) × link-loss
points × group sizes × seeds — expanded into the same content-addressed
:class:`~repro.orchestrator.grid.SweepGrid` machinery the figure sweeps
use. One campaign cell = one cell of the ``campaign`` workload = one
seeded :class:`~repro.scenario.Scenario` of the ``campaign`` harness
with the strategy planted and the fault plan compiled onto the network,
scored by :mod:`repro.campaign.scoring`.

Because the expansion is an ordinary grid, everything the orchestrator
already guarantees — exactly-once resume, crashed-worker retry, the
durable JSONL store — applies to campaigns for free, and
``repro sweep resume --run-dir <dir>`` continues an interrupted
campaign just as well as ``repro campaign run`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..orchestrator.grid import SweepGrid
from ..scenario import Scenario

__all__ = ["CAMPAIGN_EXPERIMENT", "CANNED_CAMPAIGNS", "CampaignSpec", "describe_grid"]

#: The registered workload (and harness) every campaign cell runs
#: through; a run directory whose grid names it is a campaign directory.
CAMPAIGN_EXPERIMENT = "campaign"


def describe_grid(grid: SweepGrid) -> str:
    """The one-line shape of a campaign grid (a manifest holds a
    campaign once, as its grid, so this reads axes and base params)."""
    axes, base = grid.axes, grid.base_params
    coalition = (
        f" x {len(axes['coalition_fraction'])} coalition fractions"
        if "coalition_fraction" in axes
        else ""
    )
    rounds = f", >= {base['shuffle_rounds']} shuffle rounds" if "shuffle_rounds" in base else ""
    return (
        f"campaign: {len(axes['strategy'])} strategies x {len(axes['plan'])} plans "
        f"x {len(axes['loss'])} loss points x {len(axes['nodes'])} sizes "
        f"x {len(axes['topology'])} topologies{coalition} x {len(grid.seeds)} seeds "
        f"= {len(grid)} cells (horizon {base['horizon']:g}s{rounds})"
    )


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: axes plus shared per-cell knobs.

    ``strategies`` are behaviour registry names; ``plans`` are canned
    fault-plan names (:data:`repro.chaos.plan.CANNED_PLANS`; ``none``
    is the baseline, a clean network apart from the loss point);
    ``loss_points`` are baseline link-loss rates (the campaign's
    fault-*intensity* axis); ``group_sizes`` are population sizes. ``horizon`` is the per-cell sim duration, ``detection_bound``
    the absolute sim-time by which a detectable planted misbehaver must
    be evicted (defaults to the horizon), ``heal_bound`` the liveness
    bound after each fault window heals.

    ``coalition_fractions`` is the *colluding-fraction* axis: each
    point plants ``round(fraction × nodes)`` coordinated deviants
    (sharing one :class:`~repro.freeride.coalition
    .CoalitionCoordinator`) instead of one. Sweep it toward and past
    the paper's f·G bound to measure the soundness onset; such a sweep
    holds the group size, loss point and topology at one value each.
    The axis is only added to the grid when non-empty, so existing
    campaign cell ids are untouched. ``shuffle_rounds`` is the
    multi-round horizon knob: when set, each cell's
    ``blacklist_period`` is derived as
    ``horizon / (shuffle_rounds + 2)`` so at least that many
    blacklist-shuffle rounds complete inside the horizon.
    """

    strategies: "Tuple[str, ...]" = ("forward-dropper", "replay-attacker")
    plans: "Tuple[str, ...]" = ("none", "smoke")
    loss_points: "Tuple[float, ...]" = (0.0,)
    group_sizes: "Tuple[int, ...]" = (10,)
    coalition_fractions: "Tuple[float, ...]" = ()
    shuffle_rounds: "Optional[int]" = None
    #: Topology presets (:data:`repro.topo.model.PRESET_NAMES`) — the
    #: campaign's *network-shape* axis. ``lan`` is the paper's uniform
    #: star; non-LAN presets replay every cell under WAN delay and
    #: heterogeneous access links.
    topologies: "Tuple[str, ...]" = ("lan",)
    seeds: "Tuple[int, ...]" = (0,)
    horizon: float = 12.0
    detection_bound: "Optional[float]" = None
    heal_bound: float = 4.0
    #: Extra constant cell parameters (RacConfig overrides etc.).
    base: "Dict[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in ("strategies", "plans", "loss_points", "group_sizes", "topologies", "seeds"):
            if not getattr(self, axis):
                raise ValueError(f"a campaign needs at least one entry on its {axis} axis")
        for size in self.group_sizes:
            if size < 8:
                raise ValueError(
                    f"campaign group size {size} too small (need >= 8 so canned "
                    "plans and ring checks have room)"
                )
        for fraction in self.coalition_fractions:
            if not 0.0 < fraction < 0.5:
                raise ValueError(
                    f"coalition fraction {fraction!r} outside (0, 0.5) — the "
                    "honest majority must stay a majority"
                )
        # The frontier walks the fraction axis alone: cells of a second
        # size, loss point or topology would share a coalition point or
        # line, where an above-bound cell hides a sub-f·G one.
        if self.coalition_fractions and max(
            len(self.group_sizes), len(self.loss_points), len(self.topologies)
        ) > 1:
            raise ValueError(
                "a coalition sweep takes exactly one group size, one loss point "
                "and one topology (use a single --nodes, --loss and --topologies value)"
            )
        if self.horizon <= 0:
            raise ValueError("campaign horizon must be positive")
        if self.shuffle_rounds is not None:
            if self.shuffle_rounds < 2:
                raise ValueError("shuffle_rounds must be at least 2 when set")
            period = self.horizon / (self.shuffle_rounds + 2)
            if period < 0.25:
                raise ValueError(
                    f"{self.shuffle_rounds} shuffle rounds inside a "
                    f"{self.horizon:g}s horizon would need a "
                    f"{period:.3f}s blacklist period (< 0.25s floor); "
                    "lengthen the horizon"
                )
        if self.detection_bound is not None and not 0 < self.detection_bound <= self.horizon:
            raise ValueError("detection bound must fall inside the horizon")
        # Every cell must lower to a scenario: unknown strategies
        # (UnknownBehaviorError), plans or presets, loss points outside
        # [0, 1), fractions on a unilateral strategy and misspelt RacConfig
        # overrides in ``base`` fail here, not 144 times inside the workers.
        for cell in self.to_grid().cells():
            Scenario.from_params(cell.params_dict, cell.seed, "campaign")

    # -- derived ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.to_grid())

    def to_grid(self) -> SweepGrid:
        """Expand into the content-addressed (config × seed) grid.

        The coalition axis and the shuffle-rounds knob only enter the
        grid when used, so pre-coalition campaigns keep their cell ids
        (and stay resumable) byte-for-byte.
        """
        base = dict(self.base)
        base.update(
            horizon=self.horizon,
            detection_bound=(
                self.horizon if self.detection_bound is None else self.detection_bound
            ),
            heal_bound=self.heal_bound,
        )
        if self.shuffle_rounds is not None:
            base["shuffle_rounds"] = self.shuffle_rounds
        axes = {
            "strategy": list(self.strategies),
            "plan": list(self.plans),
            "loss": list(self.loss_points),
            "nodes": list(self.group_sizes),
            "topology": list(self.topologies),
        }
        if self.coalition_fractions:
            axes["coalition_fraction"] = list(self.coalition_fractions)
        return SweepGrid(
            CAMPAIGN_EXPERIMENT,
            axes=axes,
            seeds=self.seeds,
            base_params=base,
        )

    def describe(self) -> str:
        return describe_grid(self.to_grid())

    # -- canned campaigns ------------------------------------------------------
    @classmethod
    def smoke(cls, seeds: "Sequence[int]" = (0,)) -> "CampaignSpec":
        """The CI mini-matrix: 2 fast-detecting strategies × 2 fault
        plans × 1 loss point. Must finish in CI time and come back with
        zero honest evictions and every planted misbehaver evicted."""
        return cls(
            strategies=("forward-dropper", "replay-attacker"),
            plans=("none", "smoke"),
            loss_points=(0.05,),
            group_sizes=(10,),
            seeds=tuple(seeds),
            horizon=12.0,
        )

    @classmethod
    def coalition(cls, seeds: "Sequence[int]" = (0,)) -> "CampaignSpec":
        """The coalition-frontier matrix: every coordinated strategy ×
        {none, storm} × a fraction sweep toward and past the f·G bound.

        With G=12 and f=0.25 the eviction quorum is floor(f·G)+1 = 4
        distinct lists, so f·G = 3 members is the largest coalition the
        paper promises safety against; the fractions below sweep
        c = 2..5 members, bracketing the bound from both sides. The
        group size and traffic rate are chosen so that sub-bound cells
        carry real detection margin: a staggered member's accuser count
        scales with (traffic × relay-selection probability × 1/c duty
        cycle), and at the doubled pump rate c = f·G = 3 convicts with
        room to spare, while the structurally marginal c ≥ 4 regime
        lands *above* the bound — where a missed conviction is a
        measured breakdown of the accountability frontier, not a
        soundness failure. The 30s horizon with ``shuffle_rounds=18``
        derives a 1.5s blacklist period, exercising
        ``record_relay_round`` over well past ten shuffle rounds per
        cell.
        """
        return cls(
            strategies=("coalition-shield", "coalition-frame", "coalition-stagger"),
            plans=("none", "storm"),
            loss_points=(0.0,),
            group_sizes=(12,),
            coalition_fractions=(2 / 12, 3 / 12, 4 / 12, 5 / 12),
            shuffle_rounds=18,
            seeds=tuple(seeds),
            horizon=30.0,
            base={"assumed_opponent_fraction": 0.25, "traffic_interval": 0.125},
        )

    @classmethod
    def coalition_smoke(cls, seeds: "Sequence[int]" = (0,)) -> "CampaignSpec":
        """The CI coalition mini-matrix: two coordinated strategies ×
        {none, storm}, one sub-f·G fraction (G=12, f=0.25 → quorum 4,
        coalition of 2). Must come back SOUND: the honest majority
        convicts the shielded free-riders and the framing pair fails to
        evict its victim."""
        return cls(
            strategies=("coalition-shield", "coalition-frame"),
            plans=("none", "storm"),
            loss_points=(0.0,),
            group_sizes=(12,),
            coalition_fractions=(1 / 6,),
            shuffle_rounds=8,
            seeds=tuple(seeds),
            horizon=16.0,
            base={"assumed_opponent_fraction": 0.25},
        )

    @classmethod
    def full(cls, seeds: "Sequence[int]" = (0,)) -> "CampaignSpec":
        """The committed-artefact matrix: every registered deviation
        that makes sense in a single-group campaign, baseline + smoke
        fault plans, three loss intensities."""
        return cls(
            strategies=(
                "forward-dropper",
                "silent-relay",
                "full-freerider",
                "replay-attacker",
                "flooder",
                "path-drop-opponent",
                "false-accuser",
                "no-noise",
            ),
            plans=("none", "smoke"),
            loss_points=(0.0, 0.05, 0.10),
            group_sizes=(12,),
            seeds=tuple(seeds),
            horizon=14.0,
        )


#: The canned matrices by the name ``repro campaign run --spec`` takes:
#: smoke = CI mini-matrix, full = the committed artefact, coalition =
#: the colluding-fraction sweep, coalition-smoke = its CI mini version.
CANNED_CAMPAIGNS = {
    "smoke": CampaignSpec.smoke,
    "full": CampaignSpec.full,
    "coalition": CampaignSpec.coalition,
    "coalition-smoke": CampaignSpec.coalition_smoke,
}
