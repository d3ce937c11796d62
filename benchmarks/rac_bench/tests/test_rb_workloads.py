"""A tiny pass of every workload, bare and traced, and the manifest."""

import json
import os
import time

import pytest

import layers
import run
import workloads
from hostclock import HostClock
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))

TINY = {
    "sim-flood-40": dict(scale=0.25, nodes=8),
    "sim-onion-dh-12": dict(scale=0.2, nodes=8),
    "sim-storm-16": dict(scale=1.0, nodes=8),
    "sharded-serial-256": dict(scale=1.0, nodes=32, shards=2),
    "live-loopback-8": dict(scale=0.3, nodes=4),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_untraced_pass_reports_every_end_to_end_metric(name, capsys):
    clock = HostClock()
    clock.start()
    bench = workloads.Bench(time.perf_counter(), clock=clock, setup_reps=2)
    try:
        result = workloads.WORKLOADS[name](bench, 5, **TINY[name])
    finally:
        clock.stop()
    assert result.problems == []
    assert result.failed == 0 and result.attempted >= 1
    assert len(result.latencies_s) == result.attempted
    values = run._end_to_end(bench, result)
    assert set(values) == set(run.END_TO_END)
    assert all(value > 0 for value in values.values())
    assert len(bench.setups) == (1 if name == "sharded-serial-256" else 2)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_pass_accounts_for_the_window(name, capsys):
    recorder = SpanRecorder(sample_every=50)
    recorder.install(layers.TARGETS)
    try:
        bench = workloads.Bench(time.perf_counter(), recorder=recorder)
        result = workloads.WORKLOADS[name](bench, 5, **TINY[name])
    finally:
        recorder.remove()
    assert result.problems == []
    busy = bench.window_seconds()[result.busy_clock]
    inside = sum(row["self_s"] for entries in bench.ledger.values() for row in entries.values())
    assert inside == pytest.approx(bench.outer_s, rel=1e-6)
    if result.busy_clock == "wall":
        # One outermost span covers the whole window.
        assert inside == pytest.approx(busy, rel=0.05)
    else:
        assert 0 < inside < busy * 1.05
    values = layers.layer_metrics(bench.ledger, result.counters, result.extras)
    assert list(values) == [name for name, _unit, _better in layers.PER_LAYER]
    assert values["core.node.tick_calls"] > 0
    assert recorder.trees


def test_sim_counts_and_latencies_repeat_exactly():
    def once():
        bench = workloads.Bench(time.perf_counter())
        return workloads.sim_flood_40(bench, 11, 0.25, nodes=8)

    first, second = once(), once()
    assert first.counters == second.counters
    assert first.latencies_s == second.latencies_s
    other = workloads.sim_flood_40(workloads.Bench(time.perf_counter()), 12, 0.25, nodes=8)
    assert other.latencies_s != first.latencies_s


def test_config_is_fully_spelled_out():
    import dataclasses

    import adapter

    fields = {f.name for f in dataclasses.fields(adapter.RacConfig)}
    assert fields == set(dataclasses.asdict(workloads.rac_config()))
    with pytest.raises(TypeError):
        workloads.rac_config(no_such_field=1)


def test_manifest_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/rac_bench"]
    assert manifest["run_seconds"] == workloads.RUN_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == workloads.WHY
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    } == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == layers.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_manifest_stays_inside_the_contract_limits():
    import re

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        raw = fh.read()
    manifest = json.loads(raw)
    assert len(raw.encode()) <= 64 * 1024
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in manifest["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in manifest["per_layer"])
    assert all(len(part) <= 200 for part in manifest["command"]) and len(manifest["command"]) <= 32
