"""Public API surface: the documented entry points exist and export.

Guards against export regressions — everything README, PROTOCOL.md and
the examples reference must be importable from the documented location.
"""

import collections
import importlib
import pathlib
import re
import shlex

import pytest


TOP_LEVEL = ["RacConfig", "RacSystem", "__version__"]

MODULE_SURFACE = {
    "repro.core": ["RacNode", "RacConfig", "RacSystem", "build_onion", "peel", "HonestBehavior"],
    "repro.crypto": ["KeyPair", "seal", "run_shuffle", "oneway_f", "oneway_g"],
    "repro.simnet": ["Simulator", "StarNetwork", "ReliableTransport", "ThroughputMeter", "LatencyMeter", "Tracer"],
    "repro.overlay": ["RingTopology", "MembershipView", "BroadcastState"],
    "repro.groups": ["GroupDirectory", "ChannelDirectory", "solve_puzzle", "verify_puzzle"],
    "repro.baselines": ["DCNet", "DissentV1Group", "DissentV2System", "DissentV1Sim", "DissentV2Sim"],
    "repro.analysis": [
        "sender_break_grouped",
        "receiver_break_grouped",
        "rac_throughput",
        "dissent_v1_throughput",
        "NashAnalysis",
        "GlobalObserver",
        "LogProb",
        "rounds_to_deanonymize",
        "degree_of_anonymity",
        "sybil_placement_cost",
        "predicted_latency",
    ],
    "repro.freeride": [
        "ForwardDropper",
        "SilentRelay",
        "ReplayAttacker",
        "Flooder",
        "SelectiveDropper",
        "BEHAVIORS",
        "behavior_names",
        "make_behavior",
    ],
    "repro.campaign": [
        "CampaignSpec",
        "run_campaign",
        "run_campaign_cell",
        "build_frontier",
        "campaign_report",
    ],
    "repro.experiments": [
        "figure1",
        "figure3",
        "table1",
        "all_claims",
        "nash_table",
        "measure_rac_throughput",
        "trace_dissemination",
        "recommend_parameters",
        "full_report",
        "coverage_vs_rings",
        "anonymity_vs_population",
    ],
}


class TestTopLevel:
    def test_package_exports(self):
        repro = importlib.import_module("repro")
        for name in TOP_LEVEL:
            assert hasattr(repro, name), name

    def test_version_is_semver(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


@pytest.mark.parametrize("module_name", sorted(MODULE_SURFACE))
def test_module_surface(module_name):
    module = importlib.import_module(module_name)
    for name in MODULE_SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name}.{name}"
        assert name in module.__all__, f"{name} missing from {module_name}.__all__"


ROOT = pathlib.Path(__file__).resolve().parents[2]


def _design() -> str:
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


def _design_section(title: str) -> str:
    """The body of DESIGN.md's ``## N. <title>`` section, found by its
    title so that renumbering the document cannot move a test."""
    return re.split(rf"\n## \d+\. {re.escape(title)}\n", _design())[1].split("\n## ")[0]


def test_every_module_design_md_inventories_imports():
    modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", _design_section("Architecture")))
    assert len(modules) > 40
    for name in sorted(modules):
        importlib.import_module(name)


def test_design_md_package_layout_lists_every_package():
    import repro

    root = pathlib.Path(repro.__file__).parent
    packages = {path.parent.name for path in root.glob("*/__init__.py")}
    listed = set(re.findall(r"^  ([a-z_]+)/ ", _design_section("Package layout"), re.M))
    assert packages <= listed, sorted(packages - listed)


#: Where prose, comments and docstrings cite DESIGN.md sections.
CITING = ("src", "tests", "examples", "README.md", "EXPERIMENTS.md", "PROTOCOL.md")


def _files(names, suffixes):
    """Every file named, and every file with one of ``suffixes`` under
    each directory named."""
    for name in names:
        path = ROOT / name
        if path.is_dir():
            yield from sorted(f for f in path.rglob("*") if f.suffix in suffixes)
        else:
            yield path


def test_every_design_md_section_reference_names_a_heading():
    """``DESIGN.md §N`` (or ``DESIGN §N``, a list such as ``§14, §17``
    included) outside the document, and a bare ``§N`` inside it, names
    an existing ``## N.`` heading. Paper sections (``§IV-C``) are roman
    and not read."""
    design = _design()
    headings = set(re.findall(r"^## (\d+)\. ", design, re.M))
    cited = [("DESIGN.md", number) for number in re.findall(r"§(\d+)", design)]
    for path in _files(CITING, (".py", ".md")):
        text = path.read_text(encoding="utf-8")
        for match in re.finditer(r"DESIGN(?:\.md)?\s+(§\d+(?:(?:,\s*|\s+and\s+)§\d+)*)", text):
            cited += [(path.relative_to(ROOT), number) for number in re.findall(r"\d+", match[1])]
    assert len(cited) >= 50
    dangling = sorted({f"{path}: §{number}" for path, number in cited if number not in headings})
    assert not dangling, dangling


#: Where a name DESIGN.md spells in backticks must occur.
CODE = ("src", "tests", "benchmarks", "examples", "Makefile", "BENCH_protocol.json")


def _is_code_name(part: str) -> bool:
    return "_" in part or re.fullmatch(r"[A-Z]+[a-z0-9]+(?:[A-Z]+[a-z0-9]*)+", part) is not None


def test_every_code_name_design_md_spells_exists():
    """A backticked dotted name whose last part has an underscore or is
    CamelCase is a code name; each such part occurs as a whole word in
    the code, so the document cannot name what was renamed or deleted,
    and a fragment of a longer name cannot stand for it."""
    words = set()
    for path in _files(CODE, (".py", ".json")):
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    named, missing = set(), set()
    for span in re.findall(r"`([^`\n]+)`", _design()):
        for token in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span):
            if _is_code_name(token.split(".")[-1]):
                parts = [part for part in token.split(".") if _is_code_name(part)]
                named.update(parts)
                missing.update(part for part in parts if part not in words)
    assert len(named) >= 150
    assert not missing, sorted(missing)


def test_design_md_stays_short():
    """A ratchet: lower these bounds when the document shrinks, never
    raise them."""
    text = _design()
    assert text.count("\n") <= 500
    assert len(text.encode("utf-8")) <= 36_000


#: Where `repro` command lines are documented or scripted.
DOCUMENTED = ("Makefile", "README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")


def documented_commands():
    """(file, argv) of every `repro` command line in :data:`DOCUMENTED`:
    backslash continuations joined, ``#`` comments stripped, Makefile
    variables expanded, ``$D``-style arguments taken literally."""
    for name in DOCUMENTED:
        text = (ROOT / name).read_text(encoding="utf-8").replace("\\\n", " ")
        variables = dict(re.findall(r"^([A-Z_]+) *= *(.*)$", text, re.M)) if name == "Makefile" else {}
        for line in text.splitlines():
            line = re.sub(r"(^|\s)#.*", "", line)
            while (expanded := re.sub(r"\$\(([A-Z_]+)\)", lambda m: variables.get(m[1], m[0]), line)) != line:
                line = expanded
            for match in re.finditer(r"-m repro\s+([^|&;>`]*)", line):
                yield name, shlex.split(match[1])


def refuses(parser, argv) -> bool:
    """Whether ``repro argv`` would exit before running: argparse
    rejects it, or its ``--experiment`` names no registered workload."""
    from repro.orchestrator.workloads import WORKLOADS

    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return True
    return getattr(args, "experiment", None) not in (None, *WORKLOADS)


def test_every_documented_command_parses():
    from repro.cli import build_parser

    commands = list(documented_commands())
    assert len(commands) >= 50 and {name for name, _ in commands} == set(DOCUMENTED)
    parser = build_parser()
    refused = [f"{name}: repro {' '.join(argv)}" for name, argv in commands if refuses(parser, argv)]
    assert not refused, refused
    assert any("--experiment" in argv for _, argv in commands)
    # A stale workload name parses; the check still turns it away.
    stale = ["sweep", "run", "--run-dir", "$D", "--experiment", "chaos_point", "--axis", "plan=smoke"]
    assert parser.parse_args(stale).experiment == "chaos_point"
    assert refuses(parser, stale)


def test_make_ci_runs_what_the_workflow_runs():
    """The ``ci:`` recipe and the workflow's ``run:`` steps (minus ``pip
    install``) are one command multiset: Makefile variables expanded,
    ``$(MAKE) X`` read as ``make X``, ``#`` comments stripped."""
    root = pathlib.Path(__file__).resolve().parents[2]
    makefile = (root / "Makefile").read_text(encoding="utf-8").replace("\\\n", " ")
    variables = dict(re.findall(r"^([A-Z_]+) *\??= *(.*)$", makefile, re.M), MAKE="make")
    recipe = []
    for line in re.search(r"^ci:.*\n((?:\t.*\n)+)", makefile, re.M)[1].splitlines():
        line = re.sub(r"(^|\s)#.*", "", line)
        while (expanded := re.sub(r"\$\(([A-Z_]+)\)", lambda m: variables[m[1]], line)) != line:
            line = expanded
        recipe.append(" ".join(line.split()))
    workflow = (root / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    steps = [
        " ".join(command.split())
        for command in re.findall(r"^\s*run: *(.*)$", workflow, re.M)
        if not command.startswith("pip install")
    ]
    assert len(steps) >= 10 and "make campaign-smoke" in steps and "make examples" in steps
    assert collections.Counter(recipe) == collections.Counter(steps)
