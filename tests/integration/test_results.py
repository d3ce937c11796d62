"""The committed ``results/*.txt`` files against the registry that
builds them (:mod:`repro.experiments.artefacts`).

A change that moves a paper number fails here with a diff of the
artefact. Only the pinned+fast rows are rebuilt (~15 s together); the
slow rows run through the same ``check`` by name, by hand.
"""

import dataclasses
import re
import subprocess

import pytest

from repro.cli import main
from repro.experiments import artefacts
from repro.experiments.artefacts import ARTEFACTS, RESULTS, check, render_index

FAST_PINNED = sorted(row.name for row in ARTEFACTS.values() if row.pinned and row.fast)


def test_registry_and_committed_files_are_the_same_set():
    if (RESULTS.parent / ".git").exists():
        listed = subprocess.run(
            ["git", "ls-files", "results/*.txt"],
            cwd=RESULTS.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    else:  # an exported tree: every file present is a committed one
        listed = [f"results/{path.name}" for path in RESULTS.glob("*.txt")]
    owned = [f"results/{file}" for row in ARTEFACTS.values() for file in row.files]
    assert len(owned) == len(set(owned)), "a results file has two rows"
    assert sorted(owned) == sorted(listed)


def test_the_documented_index_is_the_registry():
    docs = RESULTS.parent
    assert render_index() in (docs / "EXPERIMENTS.md").read_text(encoding="utf-8")
    # DESIGN.md §3 maps each paper figure/table/claim to registry rows.
    design = (docs / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 3. ")[1].split("\n## ")[0]
    named = [
        name
        for line in section.splitlines()
        if line.startswith(("| **", "| ext-"))
        for name in re.findall(r"`([a-z0-9_]+)`", line.rsplit("|", 2)[1])
    ]
    assert len(named) >= 15 and set(named) <= set(ARTEFACTS), sorted(set(named) - set(ARTEFACTS))


def test_default_check_covers_exactly_the_fast_pinned_rows(monkeypatch, tmp_path):
    built = []
    for row in ARTEFACTS.values():
        def build(name=row.name, count=len(row.files)):
            built.append(name)
            return [""] * count, []

        monkeypatch.setitem(ARTEFACTS, row.name, dataclasses.replace(row, build=build))
    # Every file is "stale" against an empty root: only the selection is under test.
    monkeypatch.setattr(artefacts, "RESULTS", tmp_path)
    check()
    assert sorted(built) == FAST_PINNED


@pytest.mark.parametrize("name", FAST_PINNED)
def test_committed_artefact_is_what_the_code_builds(name):
    failures = check([name])
    assert not failures, "\n".join(failures)


def test_make_writes_exactly_the_rows_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(artefacts, "RESULTS", tmp_path)
    assert main(["results", "make", "ablation"]) == 0
    assert "results make OK" in capsys.readouterr().out
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(ARTEFACTS["ablation"].files)
    for file in ARTEFACTS["ablation"].files:
        assert (tmp_path / file).read_bytes() == (RESULTS / file).read_bytes()
    # A stale or missing file is a check failure naming the file.
    (tmp_path / "ablation_rings.txt").write_text("stale\n")
    (tmp_path / "ablation_groups.txt").unlink()
    failures = check(["ablation"])
    assert len(failures) == 2
    assert "ablation_rings.txt is stale" in failures[0] and "-stale" in failures[0]
    assert "ablation_groups.txt is stale" in failures[1]
    assert main(["results", "check", "ablation"]) == 1
    assert "results check FAILED" in capsys.readouterr().out
