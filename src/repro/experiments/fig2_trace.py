"""Figure 2 as an executable trace: one onion's journey through RAC.

The paper's Figure 2 illustrates the dissemination of a message from A
through relays B and C to destination D over the multi-ring broadcast.
This module runs that exact scenario in the packet simulator with
tracing enabled and returns the causal story: the sender's broadcast,
each relay peeling and re-broadcasting, and the destination delivering
— the steps (1), (2), (3) of the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.config import RacConfig
from ..core.system import RacSystem
from ..simnet.trace import TraceEvent

__all__ = ["Figure2Trace", "trace_dissemination"]


@dataclass
class Figure2Trace:
    """The protocol-level story of one anonymous message."""

    sender: int
    destination: int
    relays: Tuple[int, ...]
    delivered_payload: Optional[bytes]
    events: List[TraceEvent]
    broadcasts_caused: int

    def narrative(self) -> str:
        """Human-readable replay of the figure's three steps."""
        lines = [
            f"Step 0: sender {self.sender} builds a {len(self.relays)}-relay onion "
            f"for destination {self.destination}",
        ]
        for event in self.events:
            if event.kind == "onion-sent":
                lines.append(
                    f"Step 1 [{event.time * 1000:7.2f} ms] sender broadcasts the onion on all "
                    f"rings (relays chosen: {event.detail['relays']})"
                )
            elif event.kind == "relay-accepted":
                lines.append(
                    f"Step 2 [{event.time * 1000:7.2f} ms] node {event.node} peels a layer "
                    f"and re-broadcasts (target {event.detail['target']})"
                )
            elif event.kind == "delivered":
                lines.append(
                    f"Step 3 [{event.time * 1000:7.2f} ms] node {event.node} deciphers with its "
                    f"pseudonym key and delivers ({event.detail['size']} bytes)"
                )
        lines.append(f"Total ring broadcasts caused: {self.broadcasts_caused}")
        return "\n".join(lines)


def trace_dissemination(
    population: int = 10,
    num_relays: int = 2,
    num_rings: int = 3,
    seed: int = 7,
) -> Figure2Trace:
    """Run the Figure 2 scenario and capture its trace."""
    if population < num_relays + 1:
        raise ValueError(
            f"an onion through {num_relays} relays needs a population of at least "
            f"{num_relays + 1}, got {population}"
        )
    config = RacConfig(
        num_relays=num_relays,
        num_rings=num_rings,
        group_min=2,
        group_max=10**9,
        message_size=2048,
        send_interval=0.05,
        relay_timeout=2.0,
        predecessor_timeout=1.0,
        rate_window=2.0,
        blacklist_period=0.0,
        puzzle_bits=2,
        trace=True,
    )
    system = RacSystem(config, seed=seed)
    nodes = system.bootstrap(population)
    system.run(1.0)
    sender, destination = nodes[0], nodes[-1]
    payload = b"the message of figure 2"
    if not system.send(sender, destination, payload):
        raise RuntimeError("the send queue refused the message")
    system.run(4.0)

    sent_events = [e for e in system.tracer.of_kind("onion-sent") if e.node == sender]
    if not sent_events:
        raise RuntimeError("the onion was never launched")
    relays = tuple(sent_events[0].detail["relays"])
    relevant = [
        e
        for e in system.tracer
        if e.kind in ("onion-sent", "relay-accepted", "delivered")
        and (e.node in (sender, destination) or e.node in relays)
    ]
    delivered = system.delivered_messages(destination)
    return Figure2Trace(
        sender=sender,
        destination=destination,
        relays=relays,
        delivered_payload=delivered[0] if delivered else None,
        events=relevant,
        broadcasts_caused=num_relays + 1,
    )
