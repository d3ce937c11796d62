"""The results registry: one table, one writer, one check.

Every committed ``results/*.txt`` file belongs to exactly one row of
:data:`ARTEFACTS`. A row's ``build()`` regenerates its texts in memory
and returns them with its *gate* failures — the assertions that say
the numbers still carry the paper's claim. :func:`make` is the only
code that writes under ``results/``; :func:`check` rebuilds, diffs
pinned rows byte for byte against the committed files and collects
every gate failure. Tier-1 (``tests/integration/test_results.py``)
checks the pinned+fast rows, so a change that moves a paper number
fails with a diff of the artefact; the slow rows are checked by name
(``repro results check NAME``, wall times in EXPERIMENTS.md).
"""

from __future__ import annotations

import difflib
import importlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..analysis.gametheory import NashAnalysis
from ..baselines.dissent_v1_sim import DissentV1Sim
from .ablation import (
    recommend_parameters,
    render_ablation,
    sweep_group_size,
    sweep_relays,
    sweep_rings,
)
from .anonymity_empirical import anonymity_vs_population, render_anonymity
from .comparison import complexity_comparison, render_comparison
from .dissemination import coverage_vs_rings, render_coverage
from .empirical import measure_rac_throughput
from .fig1 import figure1
from .fig3 import figure3
from .latency import latency_vs_relays, render_latency
from .nash import nash_table, simulate_deviation
from .table1 import table1
from .text_claims import all_claims, render_claims

__all__ = [
    "ARTEFACTS", "Artefact", "RESULTS", "check", "full_report", "make", "render_index", "show",
]

#: The committed artefacts, next to ``src/`` (tests point it elsewhere).
RESULTS = Path(__file__).resolve().parents[3] / "results"

#: What a row's build returns: one text per file, then gate failures.
Built = Tuple[List[str], List[str]]


@dataclass(frozen=True)
class Artefact:
    name: str
    build: "Callable[[], Built]"
    #: Which claim of which paper section the files evidence.
    claim: str
    #: Default: the one file ``<name>.txt``.
    files: "Tuple[str, ...]" = ()
    #: The bytes are a function of the code alone (no wall clock).
    pinned: bool = True
    #: Cheap enough for tier-1 (all fast rows together: ~15 s).
    fast: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "files", self.files or (self.name + ".txt",))


def _failed(*checks: "Tuple[bool, str]") -> "List[str]":
    return [message for ok, message in checks if not ok]


# -- fast rows: the paper's own evaluation and its measured extensions ----------
# (Figure 1's shape, Table I's cells and Theorem 1 are asserted by tier-1 in
# tests/integration/test_experiments.py and tests/unit/test_gametheory.py;
# the gates below are the claims nothing else checks.)
def _figure1_packet_level() -> Built:
    goodput = {}
    for n in (4, 8, 16):
        sim = DissentV1Sim(n, message_length=1000, seed=4)
        goodput[n] = sim.run_round([b"p%d" % i for i in range(n)]).per_member_goodput_bps(1000)
    text = "\n".join(
        f"packet-level Dissent v1 @ N={n}: {g:,.0f} b/s per member" for n, g in goodput.items()
    )
    collapse = goodput[4] / goodput[8] > 3.5 and goodput[8] / goodput[16] > 3.5
    return [text], _failed((collapse, "goodput does not collapse ~quadratically"))


def _figure3() -> Built:
    result = figure3()
    plateau = [t for n, t in zip(result.sizes, result.rac_grouped) if n >= 1000]

    def near(series: str, paper: float) -> bool:
        return abs(result.ratio_at(100_000, series) / paper - 1) <= 0.05

    return [result.render()], _failed(
        (near("rac_nogroup", 15), "RAC-NoGroup is not ~15x Dissent v2 at N=100000"),
        (near("rac_grouped", 1500), "RAC-1000 is not ~1500x Dissent v2 at N=100000"),
        (max(plateau) == min(plateau), "RAC-1000 is not flat above N=1000"),
    )


def _figure3_empirical_point() -> Built:
    # Small N: a 100k-node packet simulation in pure Python is exactly
    # the intractability DESIGN.md substitution 3 documents.
    m = measure_rac_throughput(10, warmup=0.5, duration=2.0, seed=3)
    text = (
        f"packet-level RAC @ N={m.nodes}: measured {m.measured_bps_per_node:.0f} b/s per node, "
        f"model {m.model_bps_per_node:.0f} b/s, efficiency {m.efficiency:.2f}"
    )
    return [text], _failed(
        (m.deliveries > 0, "nothing delivered under saturation"),
        (m.evictions == 0, f"{m.evictions} eviction(s) under full load"),
    )


def _text_claims() -> Built:
    claims = all_claims()
    failures = [f"{c.section}: {c.statement}" for c in claims if not c.holds]
    return [render_claims()], failures + _failed((len(claims) >= 10, "fewer than 10 claims"))


def _nash_simulated() -> Built:
    o = simulate_deviation("drop-forwarding", population=12, seed=4, max_time=15.0)
    text = (
        f"strategy={o.strategy} evicted={o.evicted} at t={o.eviction_time} "
        f"false_evictions={o.false_evictions}"
    )
    return [text], _failed(
        (o.evicted, "the forward-dropper was not evicted"),
        (o.false_evictions == 0, f"{o.false_evictions} false eviction(s)"),
    )


def _complexity_comparison() -> Built:
    rows = complexity_comparison()
    by_n = {row.nodes: row for row in rows}
    small, large = by_n[10_000], by_n[100_000]
    # v2's *total* copies grow ~linearly (S^2 ~ N at S = sqrt(N)); its
    # 1/N^1.5 throughput law is the per-server bottleneck.
    v1_growth, v2_growth = large.dissent_v1 / small.dissent_v1, large.dissent_v2 / small.dissent_v2
    return [render_comparison(rows)], _failed(
        (small.rac_grouped == large.rac_grouped, "RAC copies depend on N once groups exist"),
        (v1_growth == 100 and 8 < v2_growth < 12, "Dissent costs not quadratic / ~linear in N"),
        (all(row.onion < row.rac_grouped for row in rows), "onion routing is not the cost floor"),
    )


def _dissemination() -> Built:
    points = coverage_vs_rings(group_size=200, ring_counts=(1, 2, 3, 5, 7), trials=150)
    one, seven = points[0], points[-1]
    means = [p.mean_coverage for p in points]
    return [render_coverage(points, group_size=200)], _failed(
        (one.full_coverage_rate < 0.1, "one ring survives 10% droppers"),
        (seven.full_coverage_rate > 0.99 and seven.mean_coverage > 0.9999, "R=7 coverage <= 0.99"),
        (all(a <= b + 1e-9 for a, b in zip(means, means[1:])), "coverage not monotone in R"),
    )


def _latency() -> Built:
    points = latency_vs_relays(relay_counts=(1, 2, 3), population=10, messages=10)
    bounded = all(p.p95 < (p.num_relays + 1) * 0.05 * 10 for p in points)
    return [render_latency(points)], _failed(
        (all(p.samples == 10 for p in points), "a message was not delivered"),
        (points[0].mean < points[-1].mean, "latency does not grow with L"),
        (bounded, "p95 latency above 10 x (L+1) slots"),
    )


def _anonymity_empirical() -> Built:
    points = anonymity_vs_population(populations=(8, 12), flows=6, observe_seconds=5.0)
    uniform = all(p.anonymity_degree == 1.0 and p.rate_uniformity < 1.5 for p in points)
    # 0.5 allows sampling noise over 6 flows, nothing like identification.
    return [render_anonymity(points)], _failed(
        (all(p.attribution_accuracy <= 0.5 for p in points), "observer attribution above 0.5"),
        (uniform, "posterior or transmission rates not uniform"),
    )


def _ablation() -> Built:
    texts, failures = [], []
    for title, sweep, guarantee in (
        ("relays L", sweep_relays, "sender_break"),
        ("rings R", sweep_rings, "majority_risk"),
        ("group size G", sweep_group_size, "receiver_break"),
    ):
        points = sweep()
        texts.append(render_ablation(points, f"Ablation: {title}"))
        monotone = all(
            b.throughput_bps < a.throughput_bps
            and getattr(b, guarantee).log10 <= getattr(a, guarantee).log10
            for a, b in zip(points, points[1:])
        )
        failures += _failed((monotone, f"{title}: throughput vs {guarantee} is not monotone"))
    best = recommend_parameters()
    # Grouping amplifies sender anonymity so strongly that fewer relays
    # than the paper's conservative L=5 already meet 1e-6; the
    # reliability floor (footnote 5) pushes R above the paper's 7.
    in_range = best.num_relays <= 5 and 5 <= best.num_rings <= 20 and best.throughput_bps > 0
    on_target = best.sender_break.value <= 1e-6 and best.majority_risk.value <= 1e-5
    return texts + [best.describe()], failures + _failed(
        (on_target, "the recommended configuration misses its anonymity targets"),
        (in_range, "the recommended configuration left the paper's parameter range"),
    )


def _pubsub_capacity() -> Built:
    from ..pubsub.capacity import capacity_table, render_capacity_table

    return [render_capacity_table(capacity_table())], []


_REPORT_HEADER = """\
================================================================================
RAC (ICDCS 2013) — reproduction report
Ben Mokhtar, Berthou, Diarra, Quéma, Shoker:
"RAC: a Freerider-resilient, Scalable, Anonymous Communication Protocol"
================================================================================
"""
_REPORT_ROWS = ("text_claims", "figure1", "figure3", "table1", "complexity_comparison",
                "nash_analysis", "ablation")


def _full_report() -> Built:
    claims = all_claims()
    sections = [
        f"Headline: {sum(c.holds for c in claims)}/{len(claims)} in-text numeric claims "
        "reproduce; all Table I cells match; Figure 1/3 shapes and ratios hold."
    ]
    failures = []
    for name in _REPORT_ROWS:
        texts, failed = ARTEFACTS[name].build()
        sections += texts
        failures += [f"{name}: {reason}" for reason in failed]
    # The last text is the ablation row's recommendation.
    sections[-1] = (
        "Recommended config for (f=10%, sender<=1e-6, majority<=1e-5, set>=1000):\n  "
        + sections[-1]
    )
    sections.append(
        "Known paper-internal inconsistencies and reproduction findings: "
        "see EXPERIMENTS.md and DESIGN.md §6."
    )
    return [_REPORT_HEADER + "\n" + "\n\n".join(sections)], failures


def full_report() -> str:
    """Every paper artefact in one text — the file to attach to a
    reproduction claim (``repro report``)."""
    return _full_report()[0][0]


# -- slow rows: robustness and scale, minutes each, checked by name ---------------
def _slow(module: str) -> "Callable[[], Built]":
    """``artefact()`` of a sibling module, imported when first built:
    these pull in the scenario pipeline, the pool and the live runtime,
    which ``import repro.experiments`` should not pay for."""
    return lambda: importlib.import_module(f"{__package__}.{module}").artefact()


def _frontier(spec) -> "Tuple[str, object, List[str]]":
    """One campaign on the pool → (artefact text, report, failures)."""
    from ..campaign import campaign_report, run_campaign

    with tempfile.TemporaryDirectory(prefix="campaign-") as run_dir:
        status = run_campaign(spec, run_dir, workers=max(2, min(4, os.cpu_count() or 2)))
        description, report = campaign_report(run_dir)
    failures = report.failures()
    if not status.done or status.failed:
        failures.insert(0, "campaign did not complete cleanly: " + status.render())
    return description + "\n\n" + report.render(), report, failures


def _campaign_frontier() -> Built:
    from ..campaign import CampaignSpec

    text, _report, failures = _frontier(CampaignSpec.full())
    return [text], failures


def _coalition_frontier() -> Built:
    from ..campaign import CampaignSpec
    from .sharded_evidence import sharded_evidence

    text, report, failures = _frontier(CampaignSpec.coalition())
    # The matrix must show where accountability stops, not only that
    # it holds where the paper promises it.
    if report.coalition is None:
        failures.append("no coalition cells in the store")
    elif not report.coalition.breakdowns:
        failures.append("no above-bound breakdown measured: the matrix must sweep past f*G")
    evidence, sharded_failures = sharded_evidence()
    return [text + "\n\n" + evidence], failures + sharded_failures


_ROWS = (
    Artefact("figure1", lambda: ([figure1().render()], []),
             "§III Fig. 1: Dissent v1 and v2 throughput collapse with N; v2 above v1 from N=1000"),
    Artefact("figure1_packet_level", _figure1_packet_level,
             "§III Fig. 1 from real packets: Dissent v1 goodput falls >3.5x per doubling of N"),
    Artefact("figure3", _figure3,
             "§VI-C Fig. 3: RAC-1000 flat above N=1000; 15x / 1500x Dissent v2 at N=100000"),
    Artefact("figure3_empirical_point", _figure3_empirical_point,
             "§VI-C Fig. 3 anchor: packet-level RAC at N=10 saturates with zero evictions"),
    Artefact("table1", lambda: ([table1().render()], []),
             "§V-A Table I: all 45 anonymity cells, 5.8e-1020 included (log space)"),
    Artefact("text_claims", _text_claims,
             "§IV-A, §IV-C, §V-A, §VI-C: the ten in-text numeric claims hold"),
    Artefact("nash_analysis", lambda: ([nash_table(NashAnalysis())], []),
             "§V-B Lemmas 1-7: no deviation is rational (Theorem 1)"),
    Artefact("nash_simulated", _nash_simulated,
             "§V-B Lemma 1 simulated: a forward-dropper is evicted and nobody else"),
    Artefact("complexity_comparison", _complexity_comparison,
             "§III cost models: RAC copies constant in N, Dissent v1 quadratic"),
    Artefact("dissemination", _dissemination,
             "§IV-C ring count: R=7 reaches every honest node past 10% droppers, R=1 does not"),
    Artefact("latency", _latency,
             "§IV-A extension: delivery latency grows with the onion length L"),
    Artefact("anonymity_empirical", _anonymity_empirical,
             "§V-A Table I measured: a global observer attributes senders at chance level"),
    Artefact("ablation", _ablation,
             "§I, §VI-D: L, R and G each trade anonymity against throughput monotonically",
             files=("ablation_relays.txt", "ablation_rings.txt", "ablation_groups.txt",
                    "ablation_recommendation.txt")),
    Artefact("pubsub_capacity", _pubsub_capacity,
             "§IV-C channels as pub/sub: group size buys anonymity, groups buy throughput"),
    Artefact("full_report", _full_report,
             "§III, §V, §VI in one text: Figs. 1 and 3, Table I, claims, Nash, ablations"),
    Artefact("fault_sweep", _slow("fault_sweep"),
             "§IV-C fn. 6 lifted: at 0-10% link loss freeriders are evicted, honest nodes never",
             fast=False),
    Artefact("topology_sweep", _slow("topology_sweep"),
             "§VI-A ideal network lifted: four WAN models, no honest eviction, fp onsets <= x0.12",
             fast=False),
    Artefact("live_parity", _slow("live_parity"),
             "§VI-A simulator vs real TCP: same delivered multiset, zero accusations",
             fast=False),
    Artefact("campaign_frontier", _campaign_frontier,
             "§IV-C, §V-B two-sided accountability: 8 deviations x faults x loss, baseline sound",
             fast=False),
    Artefact("coalition_frontier", _coalition_frontier,
             "§V-A2 f*G bound: coalitions <= f*G are survivable, frame breaks at exactly f*G+1",
             fast=False),
    Artefact("chaos_soak", _slow("chaos_soak"),
             "§IV-C accountability under crashes, partitions: adversity never reads as freeriding",
             pinned=False, fast=False),
    Artefact("scaling_curve", _slow("scale_curve"),
             "§VI scalability: group-sharded simulation to N=1024, equal to monolithic at N=64",
             pinned=False, fast=False),
    Artefact("sweep_scaling", _slow("sweep_scaling"),
             "harness, no paper claim: pool and serial sweeps produce identical metrics",
             pinned=False, fast=False),
)
ARTEFACTS: "Dict[str, Artefact]" = {row.name: row for row in _ROWS}


# -- the one writer and the one check -----------------------------------------------
def _build(row: Artefact) -> "Tuple[Dict[str, str], List[str]]":
    """{file: exact file content}, failures prefixed with the row."""
    texts, failures = row.build()
    if len(texts) != len(row.files):
        raise RuntimeError(f"{row.name} built {len(texts)} texts for {len(row.files)} files")
    contents = {f: t if t.endswith("\n") else t + "\n" for f, t in zip(row.files, texts)}
    return contents, [f"{row.name}: {reason}" for reason in failures]


def show(name: str) -> "Tuple[str, List[str]]":
    """A row's texts as one printable string, plus its gate failures."""
    contents, failures = _build(ARTEFACTS[name])
    return "\n".join(contents.values()).rstrip("\n"), failures


def make(names: "Iterable[str]") -> "List[str]":
    """Rebuild the named rows and write their files under
    :data:`RESULTS`; returns the gate failures (the files are written
    regardless, so a failing artefact can be read)."""
    failures: "List[str]" = []
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name in names:
        contents, failed = _build(ARTEFACTS[name])
        for file, content in contents.items():
            (RESULTS / file).write_text(content, encoding="utf-8")
        failures += failed
    return failures


def check(names: "Optional[Iterable[str]]" = None) -> "List[str]":
    """Rebuild the named rows in memory (default: every pinned+fast
    one), run their gates and diff pinned rows against :data:`RESULTS`."""
    if names is None:
        names = [row.name for row in ARTEFACTS.values() if row.pinned and row.fast]
    failures: "List[str]" = []
    for name in names:
        row = ARTEFACTS[name]
        contents, failed = _build(row)
        failures += failed
        for file, content in contents.items() if row.pinned else ():
            path = RESULTS / file
            committed = path.read_text(encoding="utf-8") if path.exists() else ""
            if committed != content:
                diff = difflib.unified_diff(
                    committed.splitlines(True),
                    content.splitlines(True),
                    f"results/{file} (committed)",
                    f"results/{file} (rebuilt)",
                )
                failures.append(f"{name}: results/{file} is stale:\n" + "".join(diff))
    return failures


def render_index() -> str:
    """The registry as the markdown table EXPERIMENTS.md carries
    (``repro results list``; a test holds the two equal)."""
    lines = ["| row | files | pinned | fast | claim |", "|---|---|---|---|---|"]
    for row in ARTEFACTS.values():
        files = ", ".join(f"`{file}`" for file in row.files)
        flags = " | ".join("yes" if flag else "no" for flag in (row.pinned, row.fast))
        lines.append(f"| `{row.name}` | {files} | {flags} | {row.claim} |")
    return "\n".join(lines)
