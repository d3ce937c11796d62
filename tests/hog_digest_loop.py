"""Loop the starved-timer worker run next to a CPU hog and count split
directory digests.

``test_live_subprocess.py::test_a_worker_reports_the_ids_its_replica_evicted``
asserts that every replica still running after honest peers were evicted
holds the same directory. This script plays that test's scenario
``--runs`` times while one busy-loop child process competes for the CPU
(``--hog 0`` runs without it) and prints, per run, the evictions, the
survivors and their digests. It changes no machine setting: the hog is
an ordinary child process, killed on exit.

    PYTHONPATH=src python tests/hog_digest_loop.py --runs 20
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time

from repro.scenario import Scenario, run_scenario

STARVED = {"relay_timeout": 0.005, "predecessor_timeout": 0.002, "rate_window": 0.05}


def starved_ring() -> Scenario:
    """The test's scenario: 4 workers, 4 s, timers far below one slot."""
    params = {"substrate": "live", "nodes": 4, "horizon": 4.0, **STARVED, "enforce_contract": 0}
    return Scenario.from_params(params, 0, "live")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--hog", type=int, choices=(0, 1), default=1, help="1: one busy-loop child")
    args = parser.parse_args(argv)
    hog = subprocess.Popen([sys.executable, "-c", "while True: pass"]) if args.hog else None
    split = 0
    try:
        for run in range(args.runs):
            started = time.monotonic()
            outcome = run_scenario(starved_ring(), "live", processes=True)
            digests = outcome.directory_digests
            ok = bool(outcome.evictions) and len(set(digests.values())) <= 1
            split += not ok
            evicted = ", ".join(f"{e.accused:#x}@{e.at:.3f}s" for e in outcome.evictions)
            print(
                f"run {run:2d} {'ok   ' if ok else 'SPLIT'} {time.monotonic() - started:4.1f}s "
                f"evicted [{evicted}] survivors "
                + " ".join(f"{node:#x}:{d[:12]}" for node, d in sorted(digests.items())),
                flush=True,
            )
    finally:
        if hog is not None:
            hog.kill()
            hog.wait()
    print(f"{split}/{args.runs} runs with more than one digest among the survivors (or no eviction)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
