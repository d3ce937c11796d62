#!/usr/bin/env python3
"""Run the untraced set twice on this commit and compare the two.

    python3 benchmarks/rac_bench/repeat.py [--seed N] [--seconds S] [--workload NAME ...]
    python3 benchmarks/rac_bench/repeat.py --spread 10 [--seed N] [--workload NAME ...]

Prints both values and their relative difference for every (workload,
metric). Exits 1 when an end-to-end metric disagrees by more than its
bound, when an output check fails, or when a number the simulator
produces — the operation counts and the simulated delivery latencies of
the four sim and sharded workloads — differs at all between two runs of
the same seed.

``--spread N`` is the other question: N runs per workload on seeds
``seed .. seed+N-1``, and for every end-to-end metric the distance
between the first and third quartile as a share of the median, next to
the metric's bound. Exits 1 when a spread exceeds its bound (``setup_s``
is reported but not judged) or a run fails its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, END_TO_END, command_for  # noqa: E402

#: Simulated time: the same seed must give the same value to the last bit.
EXACT_ON_SIM = ("delivery_p50_ms", "delivery_p90_ms")
WALL_CLOCK_WORKLOADS = ("live-loopback-8",)


def run_once(workload: str, seed: int, seconds: "float | None") -> dict:
    done = subprocess.run(
        command_for(workload, seed, seconds, trace=0), capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: no result (exit {done.returncode})\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    result["problems"] = [line.strip() for line in lines if line.strip().startswith("CHECK FAILED")]
    return result


def spread(workloads, first_seed: int, runs: int, seconds: "float | None") -> int:
    bad = []
    print(f"{'workload':<20} {'metric':<24} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        results = [run_once(workload, first_seed + i, seconds) for i in range(runs)]
        for i, result in enumerate(results):
            if not result["correct"]:
                bad.append(
                    f"{workload}: seed {first_seed + i}: {result['failed']} of {result['attempted']} "
                    f"operations failed; {'; '.join(result['problems'])}"
                )
        for name, (_unit, _better, bound) in END_TO_END.items():
            q1, median, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results], n=4)
            share = (q3 - q1) / median
            judged = name != "setup_s"
            flag = "  BEYOND BOUND" if judged and share > bound else ""
            if flag:
                bad.append(f"{workload}: {name} spreads {share:.1%} over {runs} seeds, bound {bound:.0%}")
            print(f"{workload:<20} {name:<24} {q1:>12.4f} {median:>12.4f} {q3:>12.4f} {share:>7.2%} {bound:>6.0%}{flag}")
    for line in bad:
        print(f"PROBLEM: {line}")
    return 1 if bad else 0


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), default=None)
    parser.add_argument("--spread", type=int, default=0, metavar="N", help="N seeds per workload instead")
    args = parser.parse_args()
    if args.spread:
        if args.spread < 2:
            parser.error("--spread needs at least two runs")
        return spread(args.workload or list(WORKLOADS), args.seed, args.spread, args.seconds)

    disagreements = []
    print(f"{'workload':<20} {'metric':<24} {'first':>14} {'second':>14} {'diff':>8} {'bound':>7}")
    for workload in args.workload or list(WORKLOADS):
        first = run_once(workload, args.seed, args.seconds)
        second = run_once(workload, args.seed, args.seconds)
        for which, result in (("first", first), ("second", second)):
            if not result["correct"]:
                disagreements.append(
                    f"{workload}: {which} run: {result['failed']} of {result['attempted']} operations "
                    f"failed; {'; '.join(result['problems'])}"
                )
        simulated = workload not in WALL_CLOCK_WORKLOADS
        for key in ("attempted", "failed"):
            same = first[key] == second[key]
            print(f"{workload:<20} {key:<24} {first[key]:>14} {second[key]:>14} {'=' if same else 'DIFFERS':>8}")
            if simulated and not same:
                disagreements.append(f"{workload}: {key} differs between two runs of one seed")
        for name, (_unit, _better, bound) in END_TO_END.items():
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            diff = abs(a - b) / min(a, b)
            exact = simulated and name in EXACT_ON_SIM
            verdict = ""
            if exact and a != b:
                verdict = "  NOT IDENTICAL"
                disagreements.append(f"{workload}: simulated metric {name} is not bit-identical ({a!r} vs {b!r})")
            elif diff > bound:
                verdict = "  BEYOND BOUND"
                disagreements.append(f"{workload}: {name} disagrees by {diff:.1%}, bound {bound:.0%}")
            limit = "exact" if exact else f"{bound:.0%}"
            print(f"{workload:<20} {name:<24} {a:>14.4f} {b:>14.4f} {diff:>7.2%} {limit:>7}{verdict}")
    for line in disagreements:
        print(f"DISAGREEMENT: {line}")
    print("two runs agree" if not disagreements else f"{len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
