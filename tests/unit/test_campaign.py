"""Campaign spec expansion and frontier math, on synthetic records.

Everything here is simulation-free: the spec's validation and grid
round-trip, and the frontier aggregator fed hand-built result records,
so the soundness taxonomy (missed-detection vs false-positive), the
onset arithmetic and the skip accounting are pinned without paying for
a single protocol run.
"""

import dataclasses

import pytest

from repro.campaign import (
    BLACKLIST_POLLUTION_THRESHOLD,
    CAMPAIGN_EXPERIMENT,
    CampaignSpec,
    build_frontier,
)
from repro.chaos.plan import CANNED_PLANS, canned_plan
from repro.freeride.registry import UnknownBehaviorError
from repro.orchestrator import ResultRecord, ResultStore, config_hash


def _record(strategy, plan, loss, seed=0, status="ok", experiment=CAMPAIGN_EXPERIMENT,
            **metric_overrides):
    params = {"strategy": strategy, "plan": plan, "loss": loss, "nodes": 10}
    metrics = {
        "honest_evictions": 0.0,
        "missed_detections": 0.0,
        "detected": 1.0,
        "detection_time_s": 5.0,
        "anonymity_entropy_bits": 3.0,
        "attribution_accuracy": 0.1,
    }
    metrics.update(metric_overrides)
    return ResultRecord(
        cell_id=f"{strategy}-{plan}-{loss}-{seed}",
        experiment=experiment,
        config_hash=config_hash(params),
        params=params,
        seed=seed,
        metrics=metrics,
        status=status,
    )


class TestCampaignSpec:
    def test_defaults_validate_and_expand(self):
        spec = CampaignSpec()
        grid = spec.to_grid()
        assert len(grid) == len(spec)
        cells = grid.cells()
        assert all(c.experiment == CAMPAIGN_EXPERIMENT for c in cells)
        params = cells[0].params_dict
        assert {"strategy", "plan", "loss", "nodes", "horizon",
                "detection_bound", "heal_bound"} <= set(params)

    def test_detection_bound_defaults_to_horizon(self):
        spec = CampaignSpec(horizon=9.0)
        assert all(
            c.params_dict["detection_bound"] == 9.0 for c in spec.to_grid().cells()
        )

    def test_unknown_strategy_is_typed(self):
        with pytest.raises(UnknownBehaviorError, match="sleepy"):
            CampaignSpec(strategies=("sleepy-relay",))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"plans": ("tsunami",)},
            {"loss_points": (1.5,)},
            {"loss_points": (-0.1,)},
            {"group_sizes": (4,)},
            {"seeds": ()},
            {"horizon": 0.0},
            {"detection_bound": 99.0},
            {"heal_bound": -1.0},
        ],
    )
    def test_bad_axes_rejected(self, overrides):
        with pytest.raises(ValueError):
            dataclasses.replace(CampaignSpec(), **overrides)

    def test_cell_count_arithmetic(self):
        spec = CampaignSpec.full(seeds=(0, 1))
        assert len(spec) == 8 * 2 * 3 * 1 * 2
        assert "48 cells" not in spec.describe() or len(spec) == 48

    @pytest.mark.parametrize(
        "axis",
        [{"group_sizes": (8, 16)}, {"loss_points": (0.0, 0.05)}, {"topologies": ("lan", "wan-king")}],
    )
    def test_coalition_sweep_holds_every_other_axis_at_one_value(self, axis):
        # At f=0.25 fraction 0.3 plants 2 of 8 (within f*G) and 5 of 16
        # (above it): folded into one point, the G=8 cell's honest
        # eviction would read as an above-bound breakdown.
        coalition = dict(
            strategies=("coalition-frame",), plans=("none",),
            coalition_fractions=(0.2, 0.3), base={"assumed_opponent_fraction": 0.25},
        )
        with pytest.raises(ValueError, match="exactly one group size, one loss point and one topology"):
            CampaignSpec(**coalition, **axis)
        assert len(CampaignSpec(**coalition)) == 2

    def test_grid_is_content_addressed_and_stable(self):
        a = {c.cell_id for c in CampaignSpec.smoke().to_grid().cells()}
        b = {c.cell_id for c in CampaignSpec.smoke().to_grid().cells()}
        assert a == b

    def test_plan_builder_names(self):
        for name in CANNED_PLANS:
            plan = canned_plan(name, nodes=10, horizon=12.0, seed=0)
            plan.validate(10)
        with pytest.raises(ValueError, match="tsunami"):
            canned_plan("tsunami", nodes=10, horizon=12.0, seed=0)


class TestFrontier:
    def test_sound_matrix(self):
        store = ResultStore()
        for loss in (0.0, 0.05):
            store.append(_record("forward-dropper", "none", loss))
            store.append(_record("forward-dropper", "smoke", loss))
        report = build_frontier(store)
        assert report.baseline_ok and report.failures() == []
        assert report.skipped == 0
        for f in report.frontiers:
            assert f.sound_up_to == 0.05
            assert f.degrade_onset is None
            assert f.false_positive_onset is None
            assert f.requires_detection
        assert "SOUND" in report.render()

    def test_missed_detection_onset(self):
        store = ResultStore()
        store.append(_record("silent-relay", "none", 0.0))
        store.append(
            _record("silent-relay", "none", 0.10,
                    missed_detections=1.0, detected=0.0, detection_time_s=-1.0)
        )
        report = build_frontier(store)
        (f,) = report.frontiers
        assert report.baseline_ok  # baseline (lowest loss) is clean
        assert report.failures() == []  # a miss above the baseline is the frontier, not a failure
        assert f.sound_up_to == 0.0
        assert f.degrade_onset == 0.10
        assert f.false_positive_onset is None
        assert "detection first degrades at 10%" in f.describe()

    def test_false_positive_onset_breaks_baseline(self):
        store = ResultStore()
        store.append(_record("flooder", "none", 0.0, honest_evictions=2.0))
        report = build_frontier(store)
        assert not report.baseline_ok
        assert report.failures() == [
            "2 honest eviction(s) recorded",
            "baseline cells are not sound",
        ]
        (f,) = report.frontiers
        assert f.sound_up_to is None
        assert f.false_positive_onset == 0.0
        assert "false positives from 0%" in f.describe()
        assert "UNSOUND" in report.render()

    def test_honest_eviction_anywhere_in_the_matrix_fails_the_gate(self):
        store = ResultStore()
        store.append(_record("flooder", "none", 0.0))
        store.append(_record("flooder", "smoke", 0.10, honest_evictions=1.0))
        report = build_frontier(store)
        assert report.baseline_ok
        assert report.failures() == ["1 honest eviction(s) recorded"]

    def test_undetectable_strategy_needs_no_conviction(self):
        store = ResultStore()
        store.append(
            _record("no-noise", "none", 0.0, detected=0.0, detection_time_s=-1.0)
        )
        report = build_frontier(store)
        (f,) = report.frontiers
        assert not f.requires_detection
        assert report.baseline_ok
        assert "no conviction required" in f.describe()

    def test_entropy_trend_spans_the_loss_axis(self):
        store = ResultStore()
        store.append(_record("forward-dropper", "none", 0.0, anonymity_entropy_bits=3.3))
        store.append(_record("forward-dropper", "none", 0.10, anonymity_entropy_bits=2.8))
        (f,) = build_frontier(store).frontiers
        assert f.entropy_baseline == pytest.approx(3.3)
        assert f.entropy_worst == pytest.approx(2.8)

    def test_foreign_and_failed_and_partial_records_are_counted_not_fatal(self):
        store = ResultStore()
        store.append(_record("forward-dropper", "none", 0.0))
        store.append(_record("forward-dropper", "none", 0.05, seed=1, status="failed"))
        store.append(_record("x", "none", 0.0, seed=2, experiment="protocol"))
        partial = _record("forward-dropper", "none", 0.05, seed=3)
        partial.metrics = {"deliveries": 9.0}  # e.g. written by older code
        store.append(partial)
        report = build_frontier(store)
        assert report.failed_cells == 1
        assert report.foreign_records == 1
        assert report.skipped == 1
        assert sum(p.cells for p in report.points) == 1
        assert "skipped" in report.render()

    def test_empty_store_is_unsound(self):
        report = build_frontier(ResultStore())
        assert not report.baseline_ok
        assert "UNSOUND" in report.render()

    def test_seeds_fold_into_one_point(self):
        store = ResultStore()
        for seed in (0, 1, 2):
            store.append(_record("forward-dropper", "none", 0.0, seed=seed,
                                 detection_time_s=float(seed + 4)))
        report = build_frontier(store)
        (point,) = report.points
        assert point.cells == 3
        assert point.detection_required == 3
        assert point.mean_detection_time == pytest.approx(5.0)


class TestPollutionThreshold:
    def test_flooder_pollution_unsound_over_the_threshold(self):
        # Honest-but-blacklisted entries lingering at the horizon
        # without a single false eviction: one entry over the threshold
        # flips the verdict, the threshold itself does not.
        assert BLACKLIST_POLLUTION_THRESHOLD == 16.0
        store = ResultStore()
        store.append(_record("flooder", "none", 0.0, blacklist_violations=17.0))
        report = build_frontier(store)
        (point,) = report.points
        assert point.mean_pollution == pytest.approx(17.0)
        assert point.polluted and not point.sound
        assert not report.baseline_ok
        (f,) = report.frontiers
        assert f.pollution_onset == 0.0
        assert "blacklist pollution over threshold" in f.describe()
        assert "17.0!" in report.render()

        store = ResultStore()
        store.append(_record("flooder", "none", 0.0, blacklist_violations=16.0))
        (point,) = build_frontier(store).points
        assert not point.polluted and point.sound

    def test_flooder_pollution_tolerated_at_default_threshold(self):
        # The threshold is calibrated to tolerate the measured
        # flooder level (≈8 per cell) with 2x headroom, so the
        # committed matrix stays SOUND while anything materially worse
        # trips the verdict.
        store = ResultStore()
        store.append(_record("flooder", "none", 0.0, blacklist_violations=8.0))
        report = build_frontier(store)
        (point,) = report.points
        assert not point.polluted and point.sound
        assert report.baseline_ok
        assert report.frontiers[0].pollution_onset is None
        assert "pollution threshold: 16" in report.render()

    def test_pollution_onset_walks_the_loss_axis(self):
        store = ResultStore()
        store.append(_record("flooder", "none", 0.0, blacklist_violations=3.0))
        store.append(_record("flooder", "none", 0.10, blacklist_violations=25.0))
        (f,) = build_frontier(store).frontiers
        assert f.sound_up_to == 0.0
        assert f.pollution_onset == 0.10


def _coalition_record(strategy, plan, fraction, seed=0, *, size, nodes=12,
                      threshold=4, **metric_overrides):
    record = _record(strategy, plan, 0.0, seed=seed, **metric_overrides)
    record.cell_id = f"{strategy}-{plan}-{fraction}-{seed}"
    record.params["nodes"] = nodes
    record.params["coalition_fraction"] = fraction
    record.metrics.setdefault("coalition_size", float(size))
    record.metrics.setdefault("coalition_evicted", float(size))
    record.metrics.setdefault("relay_threshold", float(threshold))
    record.metrics.setdefault("shuffle_rounds", 12.0)
    return record


class TestCoalitionFrontier:
    def test_coalition_cells_fold_apart_from_classic_points(self):
        store = ResultStore()
        store.append(_record("silent-relay", "none", 0.0))
        store.append(_coalition_record("coalition-shield", "none", 0.25, size=3))
        report = build_frontier(store)
        assert len(report.points) == 2
        (f,) = report.frontiers  # the classic cell walks the loss axis alone
        assert f.strategy == "silent-relay"
        (point,) = report.coalition_points
        assert point.fraction == 0.25
        assert point.size == 3 and point.nodes == 12
        assert point.bound_fraction == pytest.approx(0.25)
        assert not point.above_bound  # 3 == threshold - 1 == f*G

    def test_sub_bound_gate_passes_on_clean_sub_bound_cells(self):
        store = ResultStore()
        for plan in ("none", "storm"):
            store.append(_coalition_record("coalition-shield", plan, 0.25, size=3))
        report = build_frontier(store)
        assert report.sub_bound_sound
        assert report.baseline_ok  # pure-coalition store gates on sub-f*G
        (f,) = [f for f in report.coalition_frontiers if f.plan == "none"]
        assert f.holds and f.measured_onset is None
        assert "sound across the whole swept range" in f.describe()

    def test_frame_breakdown_lands_above_bound(self):
        # The acceptance-criteria shape: sub-bound frame cells clean,
        # the quorum-completing fraction evicts an honest victim, and
        # the frontier reports the onset without failing the gate.
        store = ResultStore()
        store.append(_coalition_record(
            "coalition-frame", "none", 0.25, size=3,
            detected=0.0, detection_time_s=-1.0))
        store.append(_coalition_record(
            "coalition-frame", "none", 4 / 12, size=4,
            detected=0.0, detection_time_s=-1.0, honest_evictions=1.0))
        report = build_frontier(store)
        assert report.sub_bound_sound  # the breakdown is above-bound
        assert report.failures() == []  # ... and is the measurement, not a failure
        (f,) = report.coalition_frontiers
        assert f.fp_onset == pytest.approx(4 / 12)
        assert f.measured_onset == pytest.approx(4 / 12)
        assert f.predicted_onset == pytest.approx(4 / 12)
        assert f.holds
        assert "honest evictions from 33.3%" in f.describe()
        (broken,) = report.breakdowns
        assert broken.fraction == pytest.approx(4 / 12)
        assert "above-bound breakdowns" in report.render()
        assert "UNSOUND (>f*G)" in report.render()

    def test_sub_bound_honest_eviction_violates_the_bound(self):
        store = ResultStore()
        store.append(_coalition_record(
            "coalition-frame", "none", 0.25, size=3, honest_evictions=1.0,
            detected=0.0, detection_time_s=-1.0))
        report = build_frontier(store)
        assert not report.sub_bound_sound
        assert not report.baseline_ok
        assert report.failures() == [
            "1 honest eviction(s) recorded",
            "sub-f*G coalition cells are not sound",
            "baseline cells are not sound",
        ]
        (f,) = report.coalition_frontiers
        assert not f.holds
        assert "BOUND VIOLATED" in f.describe()

    def test_sub_bound_storm_miss_is_latency_not_violation(self):
        # A rotating coalition under a fault storm may outlive the
        # finite detection bound below f*G: reported as LATE, gate
        # still passes (safety held; conviction was slow, not absent).
        store = ResultStore()
        store.append(_coalition_record(
            "coalition-stagger", "none", 0.25, size=3))
        store.append(_coalition_record(
            "coalition-stagger", "storm", 0.25, size=3,
            missed_detections=1.0, detected=0.0, detection_time_s=-1.0,
            coalition_evicted=2.0))
        report = build_frontier(store)
        assert report.sub_bound_sound and report.failures() == []
        by_plan = {f.plan: f for f in report.coalition_frontiers}
        assert by_plan["none"].holds
        assert by_plan["storm"].holds  # storm miss below bound: latency
        assert by_plan["storm"].miss_onset == pytest.approx(0.25)
        assert "LATE" in report.render()

    def test_sub_bound_clean_plan_miss_violates_the_bound(self):
        store = ResultStore()
        store.append(_coalition_record(
            "coalition-stagger", "none", 0.25, size=3,
            missed_detections=1.0, detected=0.0, detection_time_s=-1.0,
            coalition_evicted=2.0))
        report = build_frontier(store)
        assert not report.sub_bound_sound
        assert report.failures()[0] == "sub-f*G coalition cells are not sound"
        (f,) = report.coalition_frontiers
        assert not f.holds


def _pin_store():
    """One store reaching every line shape both frontier sections print:
    unilateral cells at three loss points, a polluted point, a missed-
    detection and a false-positive onset, an undetectable strategy and a
    non-lan topology; coalition SOUND, LATE and UNSOUND (>f*G) rows and
    an above-bound breakdown; a failed, a foreign and a partial record."""
    missed = dict(missed_detections=1.0, detected=0.0, detection_time_s=-1.0)
    wan = _record("forward-dropper", "none", 0.0, seed=1, detection_time_s=6.0)
    wan.params["topology"] = "wan-king"
    partial = _record("flooder", "none", 0.0, seed=3)
    partial.metrics = {"deliveries": 9.0}
    store = ResultStore()
    for record in (
        _record("forward-dropper", "none", 0.0, detection_time_s=4.0),
        _record("forward-dropper", "none", 0.05, anonymity_entropy_bits=2.9),
        _record("forward-dropper", "none", 0.10, anonymity_entropy_bits=2.5, **missed),
        wan,
        _record("flooder", "smoke", 0.0, blacklist_violations=3.0),
        _record("flooder", "smoke", 0.05, blacklist_violations=25.0),
        _record("flooder", "smoke", 0.10, honest_evictions=1.0, attribution_accuracy=0.4),
        _record("no-noise", "none", 0.0, detected=0.0, detection_time_s=-1.0),
        _record("silent-relay", "smoke", 0.0, seed=2, status="failed"),
        _record("x", "none", 0.0, seed=2, experiment="protocol"),
        partial,
        _coalition_record("coalition-shield", "none", 0.25, size=3, detection_time_s=7.5),
        _coalition_record("coalition-shield", "none", 5 / 12, size=5, coalition_evicted=3.0, **missed),
        _coalition_record("coalition-stagger", "storm", 0.25, size=3, coalition_evicted=2.0, **missed),
        _coalition_record("coalition-frame", "none", 0.25, size=3, detected=0.0, detection_time_s=-1.0),
        _coalition_record("coalition-frame", "none", 4 / 12, size=4, honest_evictions=1.0,
                          detected=0.0, detection_time_s=-1.0),
    ):
        store.append(record)
    return store


#: ``build_frontier(_pin_store()).render()``, byte for byte. The two
#: committed frontier artefacts are slow rows that ``repro results
#: check`` skips by default; this literal pins what both of them print.
PINNED_RENDER = """\
campaign matrix: strategies x fault plans x loss intensities
strategy         plan   topology  loss  cells  honest evic  missed  pollution  detected  t_detect  entropy  attack acc
---------------  -----  --------  ----  -----  -----------  ------  ---------  --------  --------  -------  ----------
flooder          smoke  lan       0%    1      0            0       3.0        1/1       5.00s     3.00     0.100
flooder          smoke  lan       5%    1      0            0       25.0!      1/1       5.00s     3.00     0.100
flooder          smoke  lan       10%   1      1            0       0.0        1/1       5.00s     3.00     0.400
forward-dropper  none   lan       0%    1      0            0       0.0        1/1       4.00s     3.00     0.100
forward-dropper  none   lan       5%    1      0            0       0.0        1/1       5.00s     2.90     0.100
forward-dropper  none   lan       10%   1      0            1       0.0        0/1       -         2.50     0.100
forward-dropper  none   wan-king  0%    1      0            0       0.0        1/1       6.00s     3.00     0.100
no-noise         none   lan       0%    1      0            0       0.0        0/-       -         3.00     0.100

accountability frontier:
  flooder under plan smoke: sound up to 0% loss; detection never degrades; false positives from 10%; blacklist pollution over threshold from 5%; entropy 3.00->3.00 bits
  forward-dropper under plan none: sound up to 5% loss; detection first degrades at 10%; no false positives; entropy 3.00->2.50 bits
  forward-dropper under plan none on wan-king: sound across the whole swept range (up to 0% loss); detection never degrades; no false positives; entropy 3.00->3.00 bits
  no-noise under plan none: sound across the whole swept range (up to 0% loss); no conviction required (undetectable deviation); no false positives; entropy 3.00->3.00 bits
  (blacklist-pollution threshold: 16 lingering honest entries per cell)

coalition frontier: colluding fraction vs the f*G bound
strategy           plan   fraction  members  cells  honest evic  missed  evicted  detected  t_detect  rounds  verdict
-----------------  -----  --------  -------  -----  -----------  ------  -------  --------  --------  ------  --------------
coalition-frame    none   25.0%     3/12     1      0            0       3/3      0/1       -         >=12    SOUND
coalition-frame    none   33.3%     4/12     1      1            0       4/4      0/1       -         >=12    UNSOUND (>f*G)
coalition-shield   none   25.0%     3/12     1      0            0       3/3      1/1       7.50s     >=12    SOUND
coalition-shield   none   41.7%     5/12     1      0            1       3/5      0/1       -         >=12    LATE (>f*G)
coalition-stagger  storm  25.0%     3/12     1      0            1       2/3      0/1       -         >=12    LATE

coalition soundness onsets:
  coalition-frame under plan none: soundness breaks at 33.3% colluding; paper bound f*G = 25.0%; honest evictions from 33.3%; bound holds; predicted onset 33.3%
  coalition-shield under plan none: soundness breaks at 41.7% colluding; paper bound f*G = 25.0%; detection overruns the bound from 41.7%; bound holds; predicted onset 33.3%
  coalition-stagger under plan storm: soundness breaks at 25.0% colluding; paper bound f*G = 25.0%; detection overruns the bound from 25.0%; bound holds; predicted onset 33.3%

sub-f*G cells (3): all SOUND
above-bound breakdowns: coalition-frame/none at 33.3% (1 honest evictions, 0 missed detections); coalition-shield/none at 41.7% (0 honest evictions, 1 missed detections)

baseline (plan none @ 0% loss): 3 cells, 0 honest-eviction cells, 0 missed-detection cells, 0 over the pollution threshold -> SOUND
failed cells (no metrics): 1
records skipped (missing campaign metrics): 1"""


class TestRenderPin:
    def test_both_walks_render_byte_identically(self):
        report = build_frontier(_pin_store())
        assert report.render() == PINNED_RENDER
        assert report.failures() == ["1 honest eviction(s) recorded"]
        assert report.baseline_ok


class TestTopologyAxis:
    def test_unknown_topology_rejected_with_the_valid_names(self):
        with pytest.raises(ValueError, match="wan-king"):
            CampaignSpec(topologies=("metroplex",))
        with pytest.raises(ValueError):
            CampaignSpec(topologies=())

    def test_topology_axis_multiplies_the_grid(self):
        base = CampaignSpec.smoke()
        spec = dataclasses.replace(base, topologies=("lan", "wan-king"))
        assert len(spec) == 2 * len(base)
        cells = spec.to_grid().cells()
        assert {c.params_dict["topology"] for c in cells} == {"lan", "wan-king"}

    def test_frontier_folds_per_topology(self):
        store = ResultStore()
        clean = _record("forward-dropper", "none", 0.0)
        wan = _record("forward-dropper", "none", 0.0, seed=1, honest_evictions=1.0)
        wan.params["topology"] = "wan-king"
        store.append(clean)
        store.append(wan)
        report = build_frontier(store)
        assert len(report.frontiers) == 2
        by_topo = {f.topology: f for f in report.frontiers}
        assert by_topo["lan"].false_positive_onset is None
        assert by_topo["wan-king"].false_positive_onset == 0.0
        assert "on wan-king" in by_topo["wan-king"].describe()
        assert "topology" in report.render()
