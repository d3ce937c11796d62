"""Integration tests for the experiment harnesses (figures/tables)."""

import pytest

from repro.experiments import (
    all_claims,
    figure1,
    figure3,
    nash_table,
    paper_sweep_sizes,
    render_claims,
    simulate_deviation,
    table1,
    trace_dissemination,
)


class TestFigure1:
    def test_series_cover_the_sweep(self):
        result = figure1()
        assert result.sizes[0] == 100 and result.sizes[-1] == 100_000
        assert len(result.dissent_v1) == len(result.sizes)

    def test_v2_dominates_v1_at_scale(self):
        result = figure1()
        for i, n in enumerate(result.sizes):
            if n >= 1000:
                assert result.dissent_v2[i] > result.dissent_v1[i]

    def test_both_collapse_with_n(self):
        result = figure1()
        assert result.dissent_v1[-1] < result.dissent_v1[0] / 10_000
        assert result.dissent_v2[-1] < result.dissent_v2[0] / 100

    def test_render_contains_rows(self):
        text = figure1(sizes=[100, 1000]).render()
        assert "Dissent v1" in text and "1000" in text


class TestFigure3:
    def test_headline_ratios(self):
        result = figure3()
        assert result.ratio_at(100_000, "rac_nogroup") == pytest.approx(15, rel=0.05)
        assert result.ratio_at(100_000, "rac_grouped") == pytest.approx(1500, rel=0.05)

    def test_rac_grouped_flat_above_group_size(self):
        result = figure3()
        plateau = [
            t for n, t in zip(result.sizes, result.rac_grouped) if n >= 1000
        ]
        assert max(plateau) == pytest.approx(min(plateau))

    def test_rac_configs_coincide_below_group_size(self):
        result = figure3()
        for n, a, b in zip(result.sizes, result.rac_nogroup, result.rac_grouped):
            if n <= 1000:
                assert a == pytest.approx(b)

    def test_render(self):
        text = figure3(sizes=[100, 100_000]).render()
        assert "RAC-1000" in text and "kb/s" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1()

    def test_dissent_columns_all_zero(self, result):
        for (f, prop, protocol), cell in result.cells.items():
            if protocol in ("Dissent v1", "Dissent v2"):
                assert cell.is_zero()

    def test_rac1000_sender_cells(self, result):
        assert str(result.cell(0.1, "sender", "RAC-1000")) == "7.3e-22"
        assert str(result.cell(0.9, "sender", "RAC-1000")) in ("6.6e-11", "7.1e-11")

    def test_rac1000_receiver_cells(self, result):
        assert str(result.cell(0.1, "receiver", "RAC-1000")) == "5.8e-1020"
        assert str(result.cell(0.5, "receiver", "RAC-1000")) == "1.2e-303"
        assert str(result.cell(0.9, "receiver", "RAC-1000")) == "1.1e-46"

    def test_nogroup_receiver_zero(self, result):
        for f in result.fractions:
            assert result.cell(f, "receiver", "RAC-NoGroup").is_zero()

    def test_onion_equals_nogroup_sender(self, result):
        for f in result.fractions:
            assert result.cell(f, "sender", "Onion") == result.cell(
                f, "sender", "RAC-NoGroup"
            )

    def test_anonymity_set_row(self, result):
        assert result.set_sizes["RAC-1000"] == 1000
        assert result.set_sizes["Dissent v1"] == 100_000

    def test_render_shape(self, result):
        text = result.render()
        assert text.count("\n") >= 11  # header + set row + 9 data rows
        assert "5.8e-1020" in text


class TestTextClaims:
    def test_all_claims_hold(self):
        for claim in all_claims():
            assert claim.holds, f"{claim.section}: {claim.statement}"

    def test_render(self):
        text = render_claims()
        assert "NO" not in text.split("OK")[-1] or "yes" in text


class TestNashExperiment:
    def test_table_reports_equilibrium(self):
        text = nash_table()
        assert "Theorem 1 (Nash equilibrium): holds" in text
        assert "YES (violation!)" not in text

    def test_simulated_deviations_match_lemmas(self):
        outcome = simulate_deviation("drop-forwarding", population=12, seed=4, max_time=15.0)
        assert outcome.evicted
        assert outcome.false_evictions == 0


class TestFigure2Trace:
    def test_walkthrough(self):
        trace = trace_dissemination(population=10, seed=7)
        assert trace.delivered_payload == b"the message of figure 2"
        assert len(trace.relays) == 2
        narrative = trace.narrative()
        assert "Step 1" in narrative and "Step 3" in narrative


class TestSweepSizes:
    def test_paper_range(self):
        sizes = paper_sweep_sizes()
        assert sizes[0] == 100 and sizes[-1] == 100_000
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            paper_sweep_sizes(start=1000, stop=100)
