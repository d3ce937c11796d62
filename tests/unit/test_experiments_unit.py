"""Unit tests for the smaller experiment harnesses."""

import pytest

from repro.experiments.comparison import complexity_comparison, render_comparison
from repro.experiments.empirical import measure_rac_throughput
from repro.experiments.fig2_trace import trace_dissemination
from repro.experiments.fig3 import figure3
from repro.experiments.fig1 import empirical_dissent_v1_point, empirical_dissent_v2_point
from repro.experiments.runner import Table, format_rate, kbps, paper_sweep_sizes
from repro.experiments.ablation import recommend_parameters, sweep_relays


class TestRunnerHelpers:
    def test_kbps(self):
        assert kbps(8_000) == 8.0

    def test_format_rate_units(self):
        assert format_rate(200e6).endswith("Mb/s")
        assert format_rate(23_800).endswith("kb/s")
        assert format_rate(15.8).endswith("b/s")

    def test_sweep_is_log_spaced(self):
        sizes = paper_sweep_sizes(100, 10_000, per_decade=2)
        ratios = [b / a for a, b in zip(sizes, sizes[1:])]
        assert all(2.0 < r < 4.5 for r in ratios)

    def test_table_rejects_ragged_rows(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_renders_title_and_rule(self):
        table = Table(headers=["x"], title="T")
        table.add_row("v")
        lines = table.render().splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) == {"-"}


class TestComparison:
    def test_row_fields(self):
        rows = complexity_comparison(sizes=(100, 1000))
        assert [r.nodes for r in rows] == [100, 1000]
        assert rows[0].onion == 5

    def test_rac_constant_above_group(self):
        rows = complexity_comparison(sizes=(2000, 50_000))
        assert rows[0].rac_grouped == rows[1].rac_grouped

    def test_render(self):
        text = render_comparison(complexity_comparison(sizes=(100,)))
        assert "RAC (G=1000)" in text


class TestEmpiricalBaselinePoints:
    def test_dissent_v1_point_positive_and_decreasing(self):
        fast = empirical_dissent_v1_point(6, message_length=500)
        slow = empirical_dissent_v1_point(12, message_length=500)
        assert slow < fast

    def test_dissent_v2_point_positive(self):
        assert empirical_dissent_v2_point(8, message_length=500, servers=2) > 0


class TestAblationUnits:
    def test_relay_sweep_is_sorted_by_value(self):
        points = sweep_relays(values=(2, 5))
        assert [p.value for p in points] == [2, 5]

    def test_recommend_rejects_majority_opponents(self):
        with pytest.raises(ValueError):
            recommend_parameters(f=0.6)

    def test_recommend_rejects_impossible_targets(self):
        with pytest.raises(ValueError):
            recommend_parameters(f=0.45, max_sender_break=1e-300, max_relays=3,
                                 min_anonymity_set=10)



class TestHarnessInputs:
    """A harness refuses a value it cannot take with a ValueError of its
    own, before it runs anything (the CLI prints it as one line)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: figure3(group_size=1),
            lambda: measure_rac_throughput(1),
            lambda: trace_dissemination(population=2),
        ],
        ids=["figure3 G=1", "measure n=1", "trace population=2"],
    )
    def test_out_of_range_is_a_value_error(self, call):
        with pytest.raises(ValueError):
            call()
