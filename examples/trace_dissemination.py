#!/usr/bin/env python
"""Figure 2, executed: trace one onion through sender, relays, rings.

The paper's Figure 2 illustrates a node A sending through relays B and
C to destination D. This example runs that scenario in the packet
simulator with tracing on and prints the causal narrative — which
broadcast happened when, who peeled what — followed by the raw trace
rows for the curious.
"""

from repro.experiments.fig2_trace import trace_dissemination


def main() -> None:
    trace = trace_dissemination(population=10, seed=7)
    print("=== Figure 2 walkthrough (10 nodes, L=2 relays, R=3 rings) ===\n")
    print(trace.narrative())
    print()
    print(f"payload recovered by the destination: {trace.delivered_payload!r}")
    print("\n=== raw protocol trace (first 25 events) ===")
    for event in trace.events[:25]:
        print(event)


if __name__ == "__main__":
    main()
