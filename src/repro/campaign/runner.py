"""Campaign execution: spec in, frontier out.

A campaign is a :class:`~repro.campaign.spec.CampaignSpec` lowered to
its grid and handed to the one run-directory driver
(:func:`repro.orchestrator.pool.start_run`); the manifest holds it once,
as that grid. Everything the pool guarantees applies verbatim, and
``sweep resume`` / ``sweep status`` work on a campaign directory.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..orchestrator.pool import RunDirError, SweepStatus, open_run, start_run
from .frontier import FrontierReport, build_frontier
from .spec import CAMPAIGN_EXPERIMENT, CampaignSpec, describe_grid

__all__ = ["run_campaign", "campaign_report"]


def run_campaign(
    spec: CampaignSpec, run_dir: str, *, serial: bool = False, inject_crash: int = 0, **pool_options: Any
) -> SweepStatus:
    """Run every pending cell of ``spec`` to a terminal record; on a
    directory that already holds this campaign, that is a resume."""
    run = start_run(run_dir, spec.to_grid(), pool_options)
    return run.run(serial=serial, inject_crash=inject_crash)


def campaign_report(run_dir: str) -> "Tuple[str, FrontierReport]":
    """(one-line description, frontier) of a campaign directory."""
    run = open_run(run_dir)
    if run.grid.experiment != CAMPAIGN_EXPERIMENT:
        raise RunDirError(
            f"{run_dir} holds a plain sweep, not a campaign "
            f"(its manifest's experiment is {run.grid.experiment!r})"
        )
    return describe_grid(run.grid), build_frontier(run.store)
