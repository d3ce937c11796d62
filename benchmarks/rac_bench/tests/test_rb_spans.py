"""Span accounting and wrapper install/remove."""

import json
import time

import pytest

import adapter  # noqa: F401 - puts src/ on sys.path and imports the program
from layers import TARGETS, layer_shares
from spans import SpanRecorder, Target, _resolve


def _spin(seconds: float) -> None:
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def test_self_time_is_span_minus_children():
    recorder = SpanRecorder(sample_every=1)
    leaf = recorder.wrap(lambda: _spin(0.010), Target("low", "m:leaf"))

    def middle_body():
        _spin(0.005)
        leaf()
        leaf()

    middle = recorder.wrap(middle_body, Target("mid", "m:middle"))

    def top_body():
        _spin(0.004)
        middle()
        leaf()

    top = recorder.wrap(top_body, Target("top", "m:top", root=True))
    top()

    ledger = recorder.ledger()
    assert ledger["low"]["leaf"]["calls"] == 3
    assert ledger["mid"]["middle"]["calls"] == 1
    assert ledger["low"]["leaf"]["self_s"] == pytest.approx(0.030, abs=0.004)
    assert ledger["mid"]["middle"]["self_s"] == pytest.approx(0.005, abs=0.003)
    assert ledger["top"]["top"]["self_s"] == pytest.approx(0.004, abs=0.003)
    assert ledger["mid"]["middle"]["total_s"] == pytest.approx(0.025, abs=0.004)
    # Self times partition the time spent inside outermost spans.
    assert sum(seconds for _layer, seconds in layer_shares(ledger)) == pytest.approx(recorder.outer[0], abs=1e-9)
    assert recorder.outer[0] == pytest.approx(ledger["top"]["top"]["total_s"], abs=1e-9)


def test_exceptions_units_and_reset():
    recorder = SpanRecorder()

    def picky(_key, blob):
        if not blob:
            raise ValueError("empty")
        return blob * 2

    sized = recorder.wrap(picky, Target("layer", "m:picky", sized_arg=1))
    doubled = recorder.wrap(picky, Target("layer", "m:doubled", sized_result="len"))
    assert sized(None, b"abc") == b"abcabc"
    assert doubled(None, b"abcd") == b"abcdabcd"
    with pytest.raises(ValueError):
        sized(None, b"")
    ledger = recorder.ledger()["layer"]
    assert ledger["picky"] == {
        "calls": 2, "raised": 1, "units": 3,
        "total_s": ledger["picky"]["total_s"], "self_s": ledger["picky"]["self_s"],
    }
    assert ledger["doubled"]["units"] == 8
    assert not recorder._stack  # the raising span was closed
    recorder.reset()
    assert recorder.ledger()["layer"]["picky"]["calls"] == 0
    assert recorder.outer[0] == 0.0


def test_sampled_trees_link_children_to_parents(tmp_path):
    recorder = SpanRecorder(sample_every=2, max_tree_spans=3)
    leaf = recorder.wrap(lambda: None, Target("low", "m:leaf"))

    def body():
        leaf()
        leaf()
        leaf()

    root = recorder.wrap(body, Target("top", "m:root", root=True))
    for _ in range(4):
        root()
    # Roots 1 and 3 are sampled; each tree is capped at three spans.
    assert len(recorder.trees) == 2
    path = tmp_path / "trees.jsonl"
    assert recorder.write_trees(str(path)) == 6
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    first = [row for row in rows if row["trace"] == 0]
    assert [row["name"] for row in first] == ["root", "leaf", "leaf"]
    assert [row["parent"] for row in first] == [-1, 0, 0]
    assert all(row["start"] <= row["end"] for row in rows)
    assert first[0]["start"] <= first[1]["start"] and first[2]["end"] <= first[0]["end"]
    # The ledger still counted every call.
    assert recorder.ledger()["low"]["leaf"]["calls"] == 12


def test_install_and_remove_restore_the_original_objects():
    import repro.core.node
    import repro.core.onion
    import repro.orchestrator.sharded
    import repro.simnet.snapshot

    originals = {target.path: _resolve(target.path) for target in TARGETS}
    peel = repro.core.onion.peel
    assert repro.core.node.peel is peel

    recorder = SpanRecorder()
    recorder.install(TARGETS)
    try:
        # The definition and the by-name import both point at the wrapper.
        assert repro.core.onion.peel is not peel
        assert repro.core.node.peel is repro.core.onion.peel
        assert repro.core.onion.peel.__wrapped__ is peel
        assert repro.orchestrator.sharded.save_snapshot is repro.simnet.snapshot.save_snapshot
        with pytest.raises(RuntimeError):
            recorder.install(TARGETS)
    finally:
        recorder.remove()

    for path, (owner, name, raw) in originals.items():
        assert vars(owner)[name] is raw, path
    assert repro.core.node.peel is peel
    assert repro.orchestrator.sharded.save_snapshot is repro.simnet.snapshot.save_snapshot
    assert not hasattr(repro.simnet.snapshot.save_snapshot, "__wrapped__")


def test_a_missing_target_fails_loudly():
    recorder = SpanRecorder()
    with pytest.raises(AttributeError):
        recorder.install([Target("core.node", "repro.core.node:RacNode.no_such_method")])
    recorder.remove()
