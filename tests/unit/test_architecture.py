"""Architecture guard: the eighth harness fails the build.

``repro.scenario`` is the one place a population is bootstrapped, a
fault plan lowered, traffic pumped and a verdict reached. Five copies
of that pipeline grew before it existed; these checks keep a sixth from
growing back. A new way to *run* the protocol belongs in
``run_scenario``; an experiment that drives its own send loop lowers a
``Scenario`` with ``prepare()`` and reads its verdicts from
``run.outcome()``; a new *result type* belongs in ``Outcome``; a new
*committed artefact* is a row of ``experiments/artefacts.py``; a new
way to *drive a run directory* goes through ``orchestrator/pool.py``'s
``start_run`` / ``open_run``.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
import typing

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Where a ``RacSystem`` / ``LiveCluster`` (or a subclass) may be
#: constructed: the scenario pipeline and the sharded simulator's own
#: system. An experiment with an adaptive send loop (the fault sweep,
#: the Nash deviations, the paper measurements) and the lan-equivalence
#: gate ``prepare()`` a Scenario and drive ``run.system``; membership
#: churn is a plan event, not a site.
CONSTRUCTION_SITES = {"scenario.py", "simnet/shard.py"}

#: Where a ``StatsRegistry`` may be built: the simulated system's one
#: registry (its nodes share it) and each live node's environment.
REGISTRY_SITES = {"core/system.py", "live/environment.py"}

#: The only classes named ``*Outcome``. ``LiveReport`` is a live run's
#: record, the node reports both live modes hand the judge: a live
#: ``Outcome`` is built from it, not beside it.
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


#: ``RacConfig`` fields that nothing in ``src/`` reads, each with the
#: reason it is still declared.
UNREAD_CONFIG_FIELDS = {"full_shuffle_max": "4(b-i): rac_bench's rac_config() still names it"}


def test_every_config_field_is_read():
    """A ``RacConfig`` field is a knob only if some code reads it: an
    attribute of that name loaded somewhere in ``src/``. The allow-list
    names the exceptions, and an entry that gains a reader or loses its
    field fails too, so the list can only shrink."""
    tree = ast.parse((SRC / "core" / "config.py").read_text(encoding="utf-8"))
    (config,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RacConfig"]
    fields = {n.target.id for n in config.body if isinstance(n, ast.AnnAssign)}
    read = {
        node.attr
        for _, module in _modules()
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = fields - read
    assert unread <= set(UNREAD_CONFIG_FIELDS), (
        f"{sorted(unread - set(UNREAD_CONFIG_FIELDS))}: a RacConfig field nothing reads; "
        "delete it, or wire it to the code it claims to tune"
    )
    stale = set(UNREAD_CONFIG_FIELDS) - unread
    assert not stale, f"{sorted(stale)}: read now, or no longer a field; drop it from UNREAD_CONFIG_FIELDS"


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


def test_counts_have_one_store():
    """A protocol count lives in its substrate's ``StatsRegistry`` and
    nowhere else. A node once kept a ``counters`` dict beside the
    registry it also wrote; a component's own tallies (the ARQ's, the
    network's) stay on the component and ``stats_report()`` names
    them."""
    sites, shadows = set(), set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "StatsRegistry":
                sites.add(name)
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            if any(
                isinstance(part, ast.Attribute) and part.attr == "counters"
                for target in targets
                for part in (target.elts if isinstance(target, ast.Tuple) else [target])
            ):
                shadows.add(name)
    assert sites == REGISTRY_SITES, (
        f"StatsRegistry is built in {sorted(sites)}: a count goes to env.stats, the one "
        "registry of its system or live node"
    )
    assert not shadows, (
        f"{sorted(shadows)} assign a `counters` attribute: count into env.stats (or keep a "
        "component tally as a plain int named in stats_report()) instead of a second store"
    )


def test_importing_the_experiments_loads_no_runner():
    """The experiments import ``repro.scenario`` inside their bodies: at
    module level it would drag ``repro.chaos`` and ``repro.live`` into
    every ``import repro.experiments``."""
    probe = (
        "import sys, repro.experiments; "
        "print(sorted(m for m in ('repro.scenario', 'repro.chaos', 'repro.live') if m in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.strip()
    assert loaded == "[]", f"import repro.experiments loaded {loaded}"


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


def test_a_sweep_experiment_is_a_harness():
    """One runner serves every ``HARNESSES`` row under the row's own
    name; ``shard_epoch`` is the one other workload. A per-harness
    adapter with its own name and its own counter list does not return."""
    from repro.orchestrator.workloads import WORKLOADS
    from repro.scenario import HARNESSES

    assert set(WORKLOADS) == set(HARNESSES) | {"shard_epoch"}


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
    allowed = {"timer_regime", "build_config", "_build_config"}
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


def test_every_wire_type_has_a_sender():
    """A frame type joins ``WireMessage`` with the code that first sends
    it: a decoder branch for a frame no node sends is attack surface on
    the live substrate with no protocol behind it."""
    from repro.core import wire

    members = {cls.__name__ for cls in typing.get_args(wire.WireMessage)}
    built = {
        _called_name(node)
        for name, tree in _modules()
        if name not in ("core/wire.py", "core/messages.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert members <= built, (
        f"{sorted(members - built)} can be decoded off the wire but no module constructs one: "
        "add a frame to core/wire.py with its first sender"
    )


#: The ways into the package: the CLI, ``python -m repro``, the live
#: worker ``live/cluster.py`` spawns by name, and every example script.
#: The registry's ``_slow("…")`` rows are read from ``artefacts.py``.
ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.live.worker")


def _module_file(module: str) -> "typing.Optional[pathlib.Path]":
    base = SRC.parent.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.exists():
            return path
    return None


def _import_base(package: str, node: ast.ImportFrom) -> str:
    """The absolute module a ``from … import`` in ``package`` names."""
    if not node.level:
        return node.module or ""
    base = package.rsplit(".", node.level - 1)[0]
    return f"{base}.{node.module}" if node.module else base


def _defining_module(base: str, name: str) -> str:
    """Where ``from base import name`` really comes from: a submodule,
    the module a package ``__init__`` re-exports ``name`` from, or the
    ``__init__`` itself when it defines ``name``."""
    if _module_file(f"{base}.{name}"):
        return f"{base}.{name}"
    path = _module_file(base)
    if path.name != "__init__.py":
        return base
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(_import_base(base, node), alias.name)
    return base


def _imported_modules(path: pathlib.Path) -> "typing.Iterator[str]":
    """The ``repro`` modules the file at ``path`` imports. A package
    ``__init__``'s top-level imports are re-exports, not calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    package = ".".join(path.parent.relative_to(SRC.parent).parts) if SRC in path.parents else ""
    reexports = set(map(id, tree.body)) if path.name == "__init__.py" else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and id(node) not in reexports:
            yield from (alias.name for alias in node.names if alias.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom) and id(node) not in reexports:
            base = _import_base(package, node)
            if base.split(".")[0] == "repro":
                yield from (_defining_module(base, alias.name) for alias in node.names)


def test_every_module_has_a_caller():
    """Every ``src/`` module is reached from an entry point, an example
    or a results row, following imports (function-level ones too). A
    module only tests import is a harness with no claim behind it."""
    registry = ast.parse((SRC / "experiments" / "artefacts.py").read_text(encoding="utf-8"))
    slow_rows = {
        f"repro.experiments.{node.args[0].value}"
        for node in ast.walk(registry)
        if isinstance(node, ast.Call) and _called_name(node) == "_slow"
    }
    reached = {*ENTRY_POINTS, *slow_rows}
    frontier = [*map(_module_file, reached), *sorted((ROOT / "examples").glob("*.py"))]
    while frontier:
        for module in _imported_modules(frontier.pop()):
            if module not in reached and _module_file(module):
                reached.add(module)
                frontier.append(_module_file(module))
    modules = {
        "repro." + ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    unreached = sorted(modules - reached)
    assert not unreached, (
        f"{unreached} are reached from no entry point, example or results row: give each a "
        "caller that evidences a claim (a row of experiments/artefacts.py) or delete it"
    )
