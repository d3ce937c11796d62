"""The benchmark's only door into the program under test.

Everything the workloads call is imported here and nowhere else; a
refactor of ``src/repro`` that keeps these names importable (or a later
``benchmark`` PR that re-points them) keeps the benchmark running. The
traced run additionally resolves the dotted paths in ``layers.TARGETS``.

``load_snapshot`` is the one name beyond the issue's list: a sharded run
leaves its per-message latencies nowhere but in the final shard
snapshots, and ``delivery_*`` has to be reported on every workload.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(f"the program under test is missing: no package at {_SRC}/repro")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.chaos.invariants import InvariantChecker  # noqa: E402
from repro.chaos.plan import storm_plan  # noqa: E402
from repro.core.config import RacConfig  # noqa: E402
from repro.core.system import RacSystem  # noqa: E402
from repro.freeride.registry import make_behavior  # noqa: E402
from repro.live.cluster import LiveCluster  # noqa: E402
from repro.orchestrator.sharded import run_sharded  # noqa: E402
from repro.simnet.shard import ScaleSpec  # noqa: E402
from repro.simnet.snapshot import load_snapshot  # noqa: E402

__all__ = [
    "InvariantChecker",
    "LiveCluster",
    "RacConfig",
    "RacSystem",
    "ScaleSpec",
    "load_snapshot",
    "make_behavior",
    "run_sharded",
    "storm_plan",
]
