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


def _design_section(number: int) -> str:
    design = (pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md").read_text(encoding="utf-8")
    return design.split(f"\n## {number}. ")[1].split("\n## ")[0]


def test_every_module_design_md_inventories_imports():
    modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", _design_section(1)))
    assert len(modules) > 40
    for name in sorted(modules):
        importlib.import_module(name)


def test_design_md_package_layout_lists_every_package():
    import repro

    root = pathlib.Path(repro.__file__).parent
    packages = {path.parent.name for path in root.glob("*/__init__.py")}
    listed = set(re.findall(r"^  ([a-z_]+)/ ", _design_section(5), re.M))
    assert packages <= listed, sorted(packages - listed)


#: Where `repro` command lines are documented or scripted.
DOCUMENTED = ("Makefile", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")


def documented_commands():
    """(file, argv) of every `repro` command line in :data:`DOCUMENTED`:
    backslash continuations joined, ``#`` comments stripped, Makefile
    variables expanded, ``$D``-style arguments taken literally."""
    root = pathlib.Path(__file__).resolve().parents[2]
    for name in DOCUMENTED:
        text = (root / name).read_text(encoding="utf-8").replace("\\\n", " ")
        variables = dict(re.findall(r"^([A-Z_]+) *= *(.*)$", text, re.M)) if name == "Makefile" else {}
        for line in text.splitlines():
            line = re.sub(r"(^|\s)#.*", "", line)
            while (expanded := re.sub(r"\$\(([A-Z_]+)\)", lambda m: variables.get(m[1], m[0]), line)) != line:
                line = expanded
            for match in re.finditer(r"-m repro\s+([^|&;>`]*)", line):
                yield name, shlex.split(match[1])


def test_every_documented_command_parses():
    from repro.cli import build_parser

    commands = list(documented_commands())
    assert len(commands) >= 50 and {name for name, _ in commands} == set(DOCUMENTED)
    parser, refused = build_parser(), []
    for name, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(f"{name}: repro {' '.join(argv)}")
    assert not refused, refused


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
