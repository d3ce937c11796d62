"""Fixtures shared by the unit tests."""

import pytest

from repro.orchestrator import WORKLOADS, workload


@pytest.fixture
def cheap_point():
    """A registered workload whose cells cost nothing, for tests of the
    machinery around a cell (forked pool workers inherit the
    registration); ``maybe_crash`` makes it a target for injected crashes."""

    @workload("cheap_point")
    def _cheap(params, seed, ctx):
        ctx.maybe_crash()
        return {"square": float(params["nodes"]) ** 2}

    yield "cheap_point"
    del WORKLOADS["cheap_point"]
