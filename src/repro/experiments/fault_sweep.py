"""The fault sweep (results/fault_sweep.txt): link loss vs goodput
and false evictions.

The paper assumes TCP on a lossless network (§IV-C footnote 6), so its
misbehaviour detection may read *any* missing message as freeriding.
At each loss rate a 16-node system with two injected freeriders and one
mid-run link outage must keep evicting the freeriders, evict no honest
live node, and sustain goodput while the ARQ retransmits around loss.
``tests/integration/test_lossy_network.py::TestLossyAcceptance`` runs
the harshest row (10 % loss) of the same scenario in tier-1.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .runner import Table, format_rate

__all__ = ["LOSS_RATES", "scenario", "run_once", "artefact"]

LOSS_RATES = (0.0, 0.02, 0.05, 0.10)
NUM_NODES = 16
OUTAGE_DURATION = 0.4
SEED = 21
DURATION = 25.0
#: Warm-up, the send loop's last 0.6 s step past DURATION, then the drain.
HORIZON = 1.0 + DURATION + 0.6 + 4.0


def scenario(loss_rate: float):
    """The sweep's run at ``loss_rate`` as a :class:`repro.scenario.Scenario`:
    freeriders at creation indices 3 and 9, and honest node 2 loses both
    links for :data:`OUTAGE_DURATION` at t=1 s. Traffic is the caller's."""
    from ..chaos.plan import FaultPlan
    from ..scenario import Scenario

    # The lossy-acceptance configuration: detection timers opened up to
    # leave the ARQ its retransmission budget, backoff capped so
    # post-outage probes return within one rto_max.
    return Scenario(
        nodes=NUM_NODES,
        horizon=HORIZON,
        seed=SEED,
        config=dict(
            relay_timeout=2.0,
            predecessor_timeout=1.2,
            rate_window=2.0,
            blacklist_period=1.5,
            link_loss_rate=loss_rate,
            transport_rto_max=0.25,
        ),
        plan=FaultPlan(SEED, HORIZON).crash_restart(2, at=1.0, downtime=OUTAGE_DURATION),
        deviants={3: "forward-dropper", 9: "silent-relay"},
        traffic="ring", messages=0,
    )


def run_once(loss_rate: float) -> "Dict[str, float]":
    from ..scenario import prepare

    run = prepare(scenario(loss_rate))
    try:
        system = run.system
        freeriders = {run.node_ids[3], run.node_ids[9]}
        honest = [n for n in run.node_ids if n not in freeriders]
        system.run(1.0)

        sent = 0
        delivered_before = sum(len(system.delivered_messages(n)) for n in honest)
        payload = b"x" * 64
        start = system.now
        while system.now < start + DURATION:
            live = [n for n in honest if system.nodes[n].active]
            for i, src in enumerate(live):
                if system.send(src, live[(i + 1) % len(live)], payload):
                    sent += 1
            system.run(0.6)
        system.run(4.0)  # drain in-flight traffic and pending verdicts

        delivered = sum(len(system.delivered_messages(n)) for n in honest) - delivered_before
        report = system.stats_report()
        outcome = run.outcome()
        # Every evicted honest node counts, the outage victim included: the
        # judge would excuse an eviction while the victim's links are down.
        false_evicted = [e for e in outcome.evictions if e.accused not in freeriders]
        return {
            "loss_rate": loss_rate,
            "sent": sent,
            "delivered": delivered,
            "goodput_bps": delivered * len(payload) * 8 / (system.now - start),
            "delivery_ratio": delivered / sent if sent else 0.0,
            "freeriders_evicted": outcome.deviants_evicted,
            "false_evictions": len(false_evicted),
            "false_eviction_rate": len(false_evicted) / len(honest),
            "retransmits": report["transport_retransmits"],
            "packets_dropped": report["net_packets_dropped"],
        }
    finally:
        run.close()


def artefact() -> "Tuple[List[str], List[str]]":
    """The table over :data:`LOSS_RATES`, and every row that evicted an
    honest node or let a freerider stay."""
    results = [run_once(rate) for rate in LOSS_RATES]
    table = Table(
        headers=["loss", "sent", "delivered", "ratio", "goodput", "retransmits", "drops",
                 "freeriders evicted", "false evictions"],
        title=f"Fault sweep: {NUM_NODES} nodes, 2 freeriders, one {OUTAGE_DURATION}s outage",
    )
    for r in results:
        table.add_row(
            f"{r['loss_rate']:.0%}",
            r["sent"],
            r["delivered"],
            f"{r['delivery_ratio']:.3f}",
            format_rate(r["goodput_bps"]),
            r["retransmits"],
            r["packets_dropped"],
            f"{r['freeriders_evicted']}/2",
            f"{r['false_evictions']} ({r['false_eviction_rate']:.1%})",
        )
    failures = [
        f"{r['loss_rate']:.0%} loss: {r['false_evictions']} honest eviction(s), "
        f"{r['freeriders_evicted']}/2 freeriders evicted"
        for r in results
        if r["false_evictions"] or r["freeriders_evicted"] != 2
    ]
    return [table.render()], failures
