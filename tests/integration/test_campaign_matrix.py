"""The campaign matrix end to end: pool, crash, resume, frontier.

The acceptance path of the campaign subsystem: a mini
strategies × faults × loss matrix runs through the real worker pool
with an injected worker crash, survives it with exactly-once results,
and folds into a frontier whose baseline is sound — zero honest
evictions, every planted detectable misbehaver evicted.
"""

import json
import os

from repro.campaign import (
    CampaignSpec,
    build_frontier,
    campaign_report,
    run_campaign,
)
from repro.orchestrator import ResultStore, open_run
from repro.orchestrator.pool import STORE_NAME


def _mini_spec():
    # 2 detectable strategies x (baseline + faults) x one lossy point.
    return CampaignSpec(
        strategies=("forward-dropper", "replay-attacker"),
        plans=("none", "smoke"),
        loss_points=(0.05,),
        group_sizes=(10,),
        seeds=(0,),
        horizon=12.0,
    )


class TestCampaignThroughThePool:
    def test_crash_resume_and_sound_frontier(self, tmp_path):
        spec = _mini_spec()
        run_dir = str(tmp_path / "campaign")

        status = run_campaign(spec, run_dir, workers=2, inject_crash=1)
        assert status.done and status.failed == 0
        assert status.total == len(spec) == 4
        assert status.retries >= 1  # the injected crash really happened

        # Exactly-once: every cell has one ok record, none duplicated,
        # and the crashed cell's record carries its extra attempt.
        store_path = os.path.join(run_dir, STORE_NAME)
        with open(store_path, encoding="utf-8") as fh:
            bodies = [json.loads(line) for line in fh if line.strip()]
        ids = [b["cell_id"] for b in bodies]
        assert len(ids) == len(set(ids)) == 4
        assert all(b["status"] == "ok" for b in bodies)
        assert max(b["attempts"] for b in bodies) >= 2

        # Re-running the finished campaign is a no-op (resume semantics).
        again = run_campaign(spec, run_dir, workers=2)
        assert again.done and again.retries == 0
        with open(store_path, encoding="utf-8") as fh:
            assert sum(1 for line in fh if line.strip()) == 4

        # The frontier: baseline sound, both misbehavers convicted
        # everywhere, zero honest evictions anywhere.
        report = build_frontier(ResultStore(store_path))
        assert report.baseline_ok
        assert sum(p.cells for p in report.points) == 4
        assert all(p.honest_evictions == 0 for p in report.points)
        assert all(p.missed_detections == 0 for p in report.points)
        assert all(p.detected == p.cells for p in report.points)
        rendered = report.render()
        assert "SOUND" in rendered and "UNSOUND" not in rendered

        # The read-back entry points see the same state: the manifest
        # holds the campaign once, as its grid.
        reopened = open_run(run_dir)
        assert reopened.grid.to_spec() == spec.to_grid().to_spec()
        assert reopened.status().done
        description, report_back = campaign_report(run_dir)
        assert description == spec.describe()
        assert report_back.baseline_ok

    def test_interrupted_campaign_resumes_exactly_once(self, tmp_path):
        """A campaign whose store already holds some cells only runs
        the missing ones (the orchestrator-killed-midway scenario)."""
        spec = _mini_spec()
        warm = str(tmp_path / "warm")
        full_status = run_campaign(spec, warm, workers=2)
        assert full_status.done

        cold = str(tmp_path / "cold")
        os.makedirs(cold, exist_ok=True)
        # Seed the "interrupted" store with half the finished records.
        with open(os.path.join(warm, STORE_NAME), encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        with open(os.path.join(cold, STORE_NAME), "w", encoding="utf-8") as fh:
            fh.writelines(lines[:2])

        status = run_campaign(spec, cold, workers=2)
        assert status.done and status.failed == 0
        with open(os.path.join(cold, STORE_NAME), encoding="utf-8") as fh:
            bodies = [json.loads(line) for line in fh if line.strip()]
        # 2 seeded + 2 freshly run, no re-runs of the seeded pair.
        assert len(bodies) == 4
        assert len({b["cell_id"] for b in bodies}) == 4
        # Deterministic workloads: the resumed half matches the warm run.
        warm_metrics = {
            json.loads(line)["cell_id"]: json.loads(line)["metrics"] for line in lines
        }
        for body in bodies:
            assert body["metrics"] == warm_metrics[body["cell_id"]]
