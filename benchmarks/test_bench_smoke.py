"""CI regression gate: every row of ``benchmarks/baseline.py::GATES``,
re-measured and judged against the committed ``BENCH_protocol.json``.

The 2x margin on wall-clock rows absorbs CI-machine noise while still
catching an accidentally reverted fast path (the crypto optimisations
are 4-6x, so losing one blows the gate; the simulator's data path is a
sum of small trims, so its gate catches a wholesale revert or an
accidental quadratic, not one lost trim). A missing file or row fails:
deleting the baseline must not turn the job green.

Runs as a plain pytest test — no pytest-benchmark fixture — so it is
cheap enough for every CI push (``make ci-bench-smoke``); ``-k ROW``
runs one row.
"""

import json

import pytest

from benchmarks import baseline


@pytest.fixture(scope="module")
def committed():
    path = baseline.BASELINE_PATH
    return json.loads(path.read_text()) if path.exists() else {}


@pytest.mark.parametrize("gate", baseline.GATES, ids=lambda gate: gate.name)
def test_gate(gate, committed):
    failure = gate.check(committed)
    assert failure is None, failure


def test_a_row_without_a_committed_value_fails():
    def unmeasured():
        raise AssertionError("a row with nothing committed is not measured")

    for kind in baseline.KINDS:
        gate = baseline.Gate("unrecorded", unmeasured, kind)
        for doc in ({}, {"schema": 2, "gates": {}}, {"gates": {"unrecorded": {}}}):
            assert "run `make bench`" in gate.check(doc)
