"""Unit tests for the report row of the results registry and its CLI
command."""

from repro.cli import main
from repro.experiments import artefacts
from repro.experiments.artefacts import full_report


class TestFullReport:
    def test_contains_every_artifact(self):
        text = full_report()
        for marker in (
            "reproduction report",
            "In-text numeric claims",
            "Figure 1",
            "Figure 3",
            "Table I",
            "Message copies per anonymous communication",
            "Nash deviation analysis",
            "Ablation: relays L",
        ):
            assert marker in text, marker

    def test_headline_reports_all_claims(self):
        assert "10/10 in-text numeric claims reproduce" in full_report()

    def test_write_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artefacts, "RESULTS", tmp_path)
        assert artefacts.make(["full_report"]) == []
        assert (tmp_path / "full_report.txt").read_text(encoding="utf-8") == full_report() + "\n"


class TestReportCli:
    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(artefacts, "RESULTS", tmp_path / "results")  # created on demand
        assert main(["results", "make", "full_report"]) == 0
        assert "wrote full_report.txt" in capsys.readouterr().out
        assert "Figure 3" in (tmp_path / "results" / "full_report.txt").read_text(encoding="utf-8")
