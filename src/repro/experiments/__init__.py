"""Experiment harnesses — one module per paper figure/table.

* :mod:`repro.experiments.fig1` — Figure 1 (Dissent v1/v2 collapse);
* :mod:`repro.experiments.fig2_trace` — Figure 2 (dissemination walkthrough);
* :mod:`repro.experiments.fig3` — Figure 3 (RAC scales, baselines do not);
* :mod:`repro.experiments.table1` — Table I (anonymity guarantees);
* :mod:`repro.experiments.text_claims` — every in-text numeric claim;
* :mod:`repro.experiments.nash` — Section V-B deviation scoreboard;
* :mod:`repro.experiments.empirical` — packet-level RAC measurements;
* :mod:`repro.experiments.runner` — sweeps, units, ASCII tables;
* :mod:`repro.experiments.artefacts` — the registry mapping every
  committed ``results/*.txt`` file to the one function that builds it
  (``repro results list | make | check``).
"""

from .ablation import (
    AblationPoint,
    RecommendedConfig,
    recommend_parameters,
    render_ablation,
    sweep_group_size,
    sweep_relays,
    sweep_rings,
)
from .artefacts import ARTEFACTS, full_report
from .anonymity_empirical import (
    AnonymityMeasurement,
    anonymity_vs_population,
    measure_anonymity,
    render_anonymity,
)
from .comparison import ComparisonRow, complexity_comparison, render_comparison
from .dissemination import CoveragePoint, coverage_vs_rings, measure_coverage, render_coverage
from .empirical import RacMeasurement, measure_rac_throughput
from .latency import LatencyPoint, latency_vs_relays, measure_latency, render_latency
from .fig1 import Figure1Result, empirical_dissent_v1_point, empirical_dissent_v2_point, figure1
from .fig2_trace import Figure2Trace, trace_dissemination
from .fig3 import Figure3Result, figure3
from .nash import SimulatedDeviation, nash_table, simulate_deviation, standard_deviations
from .runner import Table, format_rate, kbps, paper_sweep_sizes
from .table1 import PROPERTIES, PROTOCOL_COLUMNS, Table1Result, table1
from .text_claims import Claim, all_claims, render_claims

__all__ = [
    "AblationPoint",
    "RecommendedConfig",
    "recommend_parameters",
    "render_ablation",
    "sweep_group_size",
    "sweep_relays",
    "sweep_rings",
    "AnonymityMeasurement",
    "anonymity_vs_population",
    "measure_anonymity",
    "render_anonymity",
    "ComparisonRow",
    "complexity_comparison",
    "render_comparison",
    "CoveragePoint",
    "coverage_vs_rings",
    "measure_coverage",
    "render_coverage",
    "LatencyPoint",
    "latency_vs_relays",
    "measure_latency",
    "render_latency",
    "ARTEFACTS",
    "full_report",
    "RacMeasurement",
    "measure_rac_throughput",
    "Figure1Result",
    "empirical_dissent_v1_point",
    "empirical_dissent_v2_point",
    "figure1",
    "Figure2Trace",
    "trace_dissemination",
    "Figure3Result",
    "figure3",
    "SimulatedDeviation",
    "nash_table",
    "simulate_deviation",
    "standard_deviations",
    "Table",
    "format_rate",
    "kbps",
    "paper_sweep_sizes",
    "PROPERTIES",
    "PROTOCOL_COLUMNS",
    "Table1Result",
    "table1",
    "Claim",
    "all_claims",
    "render_claims",
]
