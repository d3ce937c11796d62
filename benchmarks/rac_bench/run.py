#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmarks/rac_bench/run.py --workload sim-flood-40 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice at half length — once bare, once
with every layer's entry points wrapped in spans — and reports the
per-layer ledger; it never feeds an end-to-end metric. Without
``--workload`` every workload is run in a fresh interpreter, one after
the other.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when a result was printed and every output check
passed, 1 when a check failed, 2 when the run could not start.
"""

import time

_ORIGIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 20130708

#: name -> (unit, better, bound): the end-to-end metrics, as in
#: BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "host_cpu_s_per_proto_s": ("s/s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "delivery_p50_ms": ("ms", "lower", 0.25),
    "delivery_p90_ms": ("ms", "lower", 0.25),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one of the five workload names; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed every input is generated from")
    parser.add_argument("--seconds", type=float, default=None, help="size of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def command_for(workload: str, seed: int, seconds, trace: int) -> list:
    """The command line of one run in a fresh interpreter."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    return command


def _run_all(args) -> int:
    """Every workload in its own interpreter; worst exit code wins."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        print(f"=== {name} ===", flush=True)
        command = command_for(name, args.seed, args.seconds, args.trace)
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def _end_to_end(bench, result) -> dict:
    from hostclock import KERNEL_REF_S
    from measure import finite, peak_rss_mb, percentile, tail_percentile, with_failures

    window = bench.window_seconds()
    setups = [bench.interval(a, b) for a, b in bench.setups]
    # Interpreter start to the first setup repetition (imports, argument
    # parsing) is paid once; the repetitions give a median.
    head_s = bench.interval(bench.origin, max(bench.origin, bench.setups[0][0]))["wall_corrected"]
    setup_s = head_s + statistics.median(s["wall_corrected"] for s in setups)
    latencies = with_failures(result.latencies_s, result.attempted)
    tail_q, tail_value = tail_percentile(latencies)
    values = {
        "setup_s": setup_s,
        "host_cpu_s_per_proto_s": window["cpu_corrected"] / result.protocol_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "delivery_p50_ms": finite(percentile(latencies, 50) * 1e3),
        "delivery_p90_ms": finite(tail_value * 1e3),
    }
    kernel = bench.clock.kernel_times()
    quartiles = statistics.quantiles(kernel, n=4)
    print(f"  window             {window['wall']:.3f} s wall, {window['cpu']:.3f} s cpu measured; "
          f"{window['wall_corrected']:.3f} s wall, {window['cpu_corrected']:.3f} s cpu corrected "
          f"for host slowdown; {result.protocol_seconds:g} protocol seconds")
    print(f"  host slowdown      kernel {quartiles[0] * 1e3:.2f} / {quartiles[1] * 1e3:.2f} / "
          f"{quartiles[2] * 1e3:.2f} ms at the quartiles of {len(kernel)} samples "
          f"(reference {KERNEL_REF_S * 1e3:.2f} ms)")
    print(f"  setup              {head_s:.3f} s before the first repetition, then "
          + ", ".join(f"{s['wall_corrected']:.3f}" for s in setups) + " s per repetition (corrected)")
    print(f"  delivery           p50 and p{tail_q} of n={len(latencies)} operations "
          f"({result.attempted - len(result.latencies_s)} without a latency count as unbounded)")
    return values


def _per_layer(bare, traced, result_bare, result_traced) -> dict:
    from layers import layer_metrics, layer_shares

    # Busy seconds: wall where the process computes throughout, CPU on
    # live, where it sleeps between slots.
    clock = result_traced.busy_clock
    bare_busy = bare.window_seconds()[clock]
    traced_busy = traced.window_seconds()[clock]
    # Rates and the load generator's numbers come from the bare pass.
    extras = {**result_traced.extras, **result_bare.extras}
    events = result_bare.counters.get("sim_events_processed", 0)
    extras["simnet.engine.events_per_s"] = events / bare_busy
    extras["trace.overhead_ratio"] = traced_busy / bare_busy
    extras["trace.unattributed_s"] = traced_busy - traced.outer_s
    values = layer_metrics(traced.ledger, result_traced.counters, extras)

    print(f"  window ({clock:<4})      {bare_busy:.3f} s bare, {traced_busy:.3f} s traced "
          f"(overhead x{extras['trace.overhead_ratio']:.2f}); {traced.outer_s:.3f} s inside spans, "
          f"{extras['trace.unattributed_s']:.3f} s outside")
    print("  layer self time    (share of the traced window)")
    for layer, seconds in layer_shares(traced.ledger):
        if seconds > 0:
            print(f"    {layer:<22} {seconds:9.3f} s  {100 * seconds / traced_busy:5.1f}%")
    return values


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, HERE)
    from hostclock import HostClock

    # The clock runs before the program is imported, so that the imports
    # are part of a corrected setup_s.
    clock = HostClock() if args.workload is not None and args.trace == 0 else None
    if clock is not None:
        clock.start()
    try:
        return _run(args, clock)
    finally:
        if clock is not None:
            clock.stop()


def _run(args, clock) -> int:
    try:
        from workloads import RUN_SECONDS, WORKLOADS, Bench
    except ImportError as exc:
        print(f"rac_bench cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    scale = seconds / RUN_SECONDS
    workload = WORKLOADS[args.workload]
    print(f"{args.workload}  seed {args.seed}  seconds {seconds:g}  trace {args.trace}")

    if args.trace == 0:
        bench = Bench(_ORIGIN, clock=clock, setup_reps=3)
        result = workload(bench, args.seed, scale)
        values = _end_to_end(bench, result)
        units = {name: unit for name, (unit, _better, _bound) in END_TO_END.items()}
    else:
        from layers import PER_LAYER, TARGETS
        from spans import SpanRecorder

        half = scale / 2
        bare = Bench(_ORIGIN, extras=True)
        result_bare = workload(bare, args.seed, half)
        recorder = SpanRecorder()
        recorder.install(TARGETS)
        try:
            traced = Bench(_ORIGIN, recorder=recorder)
            result = workload(traced, args.seed, half)
        finally:
            recorder.remove()
        values = _per_layer(bare, traced, result_bare, result)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl")
        spans = recorder.write_trees(trace_path)
        print(f"  span trees         {len(recorder.trees)} sampled roots, {spans} spans -> "
              f"{os.path.relpath(trace_path)}")
        result.problems = [f"bare pass: {p}" for p in result_bare.problems] + [
            f"traced pass: {p}" for p in result.problems
        ]
        result.failed += result_bare.failed
        result.attempted += result_bare.attempted
        result.notes = result_bare.notes
        units = {name: unit for name, unit, _better in PER_LAYER}

    for note in result.notes:
        print(f"  {note}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6f} {units[name]}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  operations         {result.attempted} attempted, {result.failed} failed; "
          f"checks {'passed' if not result.problems else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": not result.problems and result.failed == 0,
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0 if not result.problems and result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
