#!/usr/bin/env python3
"""Alternating parent/change pairs of one ``rac_bench`` workload.

    python3 benchmarks/pairs.py --parent HEAD~1 --workload sim-flood-40 --n 10 --seed 20130708

Unpacks ``--parent`` (``git archive``: no worktree entry is left in
``.git``) under ``out/pairs/<sha>/``, then runs each tree's *own*
``benchmarks/rac_bench/run.py --trace 0`` N times, alternating which
side goes first; the change is this working tree. Prints, per end-to-end
metric, both medians and quartiles, wins/ties and every pair, and calls
a gain only by the rule perf PRs are held to: the change wins at least
nine tenths of the pairs (ties count for neither side) and the medians
differ by more than the distance between the parent's own quartiles.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str) -> str:
    """The tree of ``rev`` under ``out/pairs/``, unpacked once per commit."""
    git = {"cwd": ROOT, "capture_output": True, "check": True}
    sha = subprocess.run(["git", "rev-parse", "--short", rev], text=True, **git).stdout.strip()
    tree = os.path.join(ROOT, "out", "pairs", sha)
    if not os.path.isdir(tree):
        archive = subprocess.run(["git", "archive", sha], **git).stdout
        os.makedirs(tree)
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def run_once(tree: str, workload: str, seed: int) -> dict:
    script = os.path.join(tree, "benchmarks", "rac_bench", "run.py")
    command = [sys.executable, script, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{tree}: no result (exit {done.returncode})\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def report(name: str, better: str, parent: list, change: list) -> None:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(side, n=4) for side in (parent, change))
    gain = wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1
    verdict = "GAIN" if gain else "no gain shown"
    if ties == len(parent):
        verdict = "identical" + (f", {parent[0]!r} on every run" if len(set(parent)) == 1 else "")
    print(f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}] -> change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
          f"({(cm - pm) / pm:+.1%} of the parent's median); change wins {wins}/{len(parent)}, "
          f"{ties} ties; median gap {abs(cm - pm):.4g} vs parent IQR {p3 - p1:.4g}: {verdict}")
    print("    pairs parent/change: " + " ".join(f"{p:.6g}/{c:.6g}" for p, c in zip(parent, change)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare this tree against")
    parser.add_argument("--workload", default="sim-flood-40")
    parser.add_argument("--n", type=int, default=10, help="pairs to run (at least 2)")
    parser.add_argument("--seed", type=int, default=20130708)
    args = parser.parse_args()
    if args.n < 2:
        parser.error("quartiles need at least two pairs")
    trees = {"parent": unpack(args.parent), "change": ROOT}
    runs = {"parent": [], "change": []}
    for pair in range(args.n):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], args.workload, args.seed)
            runs[side].append(result)
            print(f"pair {pair + 1:>2} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    print(f"\n{args.workload}, seed {args.seed}, {args.n} alternating pairs, tracing off; "
          f"parent = {args.parent} ({os.path.basename(trees['parent'])})")
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        report(name, metric["better"], values["parent"], values["change"])
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
    print(f"operations: parent {failed['parent']}/{attempted['parent']} failed, "
          f"change {failed['change']}/{attempted['change']} failed")
    return 0 if all(r["correct"] for side in runs for r in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
