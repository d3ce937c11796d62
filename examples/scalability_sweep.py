#!/usr/bin/env python
"""Regenerate the paper's evaluation tables at the command line.

Prints Figure 1, Figure 3, Table I and the in-text claim scoreboard —
the full Section VI — plus one *packet-level* RAC measurement pinning
the analytic curves to the implemented protocol.
"""

from repro.experiments import figure1, figure3, render_claims, table1
from repro.experiments.empirical import measure_rac_throughput


def main() -> None:
    print(figure1().render())
    print()
    print(figure3().render())
    print()
    print(table1().render())
    print()
    print(render_claims())
    print()
    print("packet-level validation point (small N; see DESIGN.md §2):")
    measurement = measure_rac_throughput(10, warmup=0.5, duration=2.0, seed=3)
    print(
        f"  N={measurement.nodes}: measured {measurement.measured_bps_per_node:,.0f} b/s "
        f"per node vs model {measurement.model_bps_per_node:,.0f} b/s "
        f"(efficiency {measurement.efficiency:.2f}, "
        f"{measurement.deliveries} deliveries, {measurement.evictions} evictions)"
    )


if __name__ == "__main__":
    main()
