"""Architecture guard: the eighth harness fails the build.

``repro.scenario`` is the one place a population is bootstrapped, a
fault plan lowered, traffic pumped and a verdict reached. Five copies
of that pipeline grew before it existed; these checks keep a sixth from
growing back. A new way to *run* the protocol belongs in
``run_scenario``; a new *result type* belongs in ``Outcome``; a new
*committed artefact* is a row of ``experiments/artefacts.py``; a new
way to *drive a run directory* goes through ``orchestrator/pool.py``'s
``start_run`` / ``open_run``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Where a ``RacSystem`` / ``LiveCluster`` (or a subclass) may be
#: constructed: the scenario pipeline, the sharded simulator's own
#: system, the pub/sub service and its sim twin (a client-API script,
#: not a population → plan → traffic run), the lan-equivalence gate,
#: the five paper experiments that drive a system by hand, and the
#: fault sweep (an adaptive send loop — it counts accepted sends and
#: re-reads the eviction set every round — whose bytes are pinned).
CONSTRUCTION_SITES = {
    "scenario.py",
    "simnet/shard.py",
    "pubsub/sim.py",
    "pubsub/service.py",
    "topo/run.py",
    "experiments/empirical.py",
    "experiments/latency.py",
    "experiments/anonymity_empirical.py",
    "experiments/nash.py",
    "experiments/fig2_trace.py",
    "experiments/fault_sweep.py",
}

#: The only classes named ``*Outcome``. ``LiveReport`` stays the
#: cluster's shutdown report (what a live ``Outcome`` is built from)
#: and ``PubSubReport`` the service's.
OUTCOME_TYPES = {
    "scenario.py": {"Outcome"},
    "orchestrator/sharded.py": {"ShardedOutcome"},
    "analysis/gametheory.py": {"DeviationOutcome"},
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_systems_and_clusters_are_built_only_on_the_allow_list():
    sites = {}
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ("RacSystem", "LiveCluster"):
                sites.setdefault(name, set()).add(_called_name(node))
    stray = {name: sorted(found) for name, found in sites.items() if name not in CONSTRUCTION_SITES}
    assert not stray, (
        f"{stray} construct a RacSystem/LiveCluster outside the allow-list: express the run as a "
        "repro.scenario.Scenario and go through prepare()/run_scenario() instead"
    )
    assert {"RacSystem"} == sites["topo/run.py"]  # run_digest, nothing else


def test_outcome_types_stay_three():
    found = {}
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Outcome"):
                found.setdefault(name, set()).add(node.name)
    assert found == OUTCOME_TYPES, (
        "a scenario run reports through repro.scenario.Outcome (harness-specific numbers go in "
        f"Outcome.scores); found {found}"
    )


def test_a_run_directory_has_one_driver():
    """Manifest, store path and orchestrator construction live in
    ``orchestrator/pool.py`` (four front doors each re-implemented
    manifest -> store -> serial-or-pool -> crash cells -> status, and
    disagreed). ``run_sharded`` builds one orchestrator per epoch over
    its own ``sharded.json``."""
    run_dir_names = {"write_manifest", "load_manifest", "STORE_NAME"}
    strays = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            mentioned = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if name != "orchestrator/pool.py" and mentioned & run_dir_names:
                strays.add(f"{name} names {sorted(mentioned & run_dir_names)[0]}")
            if (
                name not in ("orchestrator/pool.py", "orchestrator/sharded.py")
                and isinstance(node, ast.Call)
                and _called_name(node) == "SweepOrchestrator"
            ):
                strays.add(f"{name} constructs a SweepOrchestrator")
    assert not strays, (
        f"{sorted(strays)}: a run directory is started with repro.orchestrator.pool.start_run("
        "run_dir, grid, options) and reopened with open_run(run_dir); .run(serial=, inject_crash=), "
        ".status() and .store on what they return are the whole interface"
    )


def test_no_second_regime_function():
    """Timer regimes live in one table, not in per-harness
    ``*_config(**overrides)`` functions."""
    allowed = {"timer_regime", "build_config", "_build_config", "_small_config"}
    found = {
        f"{name}:{node.name}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and (node.name.endswith("_config") or node.name == "timer_regime")
    }
    assert {entry.split(":")[1] for entry in found} <= allowed, found


def test_only_the_event_loop_touches_the_cycle_collector():
    """``Simulator.run`` sizes the young generation for its own length
    and hands the collector back as it found it; a second module that
    tunes, freezes or disables it would fight that policy, or leave the
    process without a collector for cycles that do exist (sharded's
    discarded shard systems)."""
    importers = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
    }
    assert importers == {"simnet/engine.py"}, (
        f"{sorted(importers)} import gc: the collector policy lives in Simulator.run alone"
    )


_RESULTS_DIR = re.compile(r"(^|[\s/])results(/|$)")


def _names_results_dir(nodes) -> bool:
    """A string constant (docstrings aside) with ``results`` as a path
    component."""
    found = False
    for root in nodes:
        docstrings = {
            id(node.value)
            for node in ast.walk(root)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        found = found or any(
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _RESULTS_DIR.search(node.value)
            for node in ast.walk(root)
        )
    return found


def _writes_a_file(nodes) -> bool:
    """``open(..., "w" | "a")``, ``.write_text(`` or ``.write_bytes(``."""

    def is_write(call: ast.Call) -> bool:
        if _called_name(call) in ("write_text", "write_bytes"):
            return True
        modes = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
        return _called_name(call) == "open" and any(
            isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wa") for mode in modes
        )

    return any(
        isinstance(node, ast.Call) and is_write(node) for root in nodes for node in ast.walk(root)
    )


def test_only_the_registry_writes_under_results():
    """``repro results make`` is the one writer of ``results/``: outside
    the registry, no function may write a file when it — or its
    module's top level — names that directory. (Five mechanisms did,
    and a CI smoke run overwrote a committed table.)"""
    scanned = [(f"src/repro/{name}", tree) for name, tree in _modules()]
    for path in sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("examples/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scanned.append((path.relative_to(ROOT).as_posix(), tree))
    offenders = set()
    for name, tree in scanned:
        definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        units = [[node] for node in tree.body if isinstance(node, definitions)]
        top_level = [node for node in tree.body if not isinstance(node, definitions)]
        shared = _names_results_dir(top_level)
        for unit in [top_level, *units]:
            if _writes_a_file(unit) and (shared or _names_results_dir(unit)):
                offenders.add(name)
    assert offenders == {"src/repro/experiments/artefacts.py"}, (
        f"{sorted(offenders)} write files and name the results/ directory: a committed artefact "
        "is a row of repro.experiments.artefacts.ARTEFACTS, written by `repro results make`"
    )
