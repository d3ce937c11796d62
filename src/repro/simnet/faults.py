"""Deterministic fault injection for the star network.

The paper evaluates every protocol on an ideal network (Section VI-A)
and leans on TCP for reliability (footnote 6), so a missing message is
always evidence of freeriding. Real deployments see packet loss, link
outages and congested links; an accountability protocol evaluated only
on lossless links has never had to distinguish *failure* from
*misbehaviour*. This module supplies the adversarial network layer:

* **random loss** — per-link (node, direction) Bernoulli packet drops;
* **outages** — scheduled windows during which a node's uplink,
  downlink or both black-hole every packet;
* **partitions** — scheduled windows during which two node sets cannot
  exchange packets in either direction;
* **bandwidth degradation** — scheduled windows during which a link
  serializes at a fraction of its nominal rate.

Everything is driven by one seeded RNG and evaluated in simulation
event order, so two runs with the same seed replay *exactly* the same
drops. A zero-loss injector never draws from the RNG, which keeps
pre-existing lossless simulations byte-identical.

The plan is one sorted timeline of window edges
(:attr:`FaultInjector.edges`). Nothing about it changes between two
edges, so the injector keeps the state of the present stretch — links
down, partitions open, the edge behind and the edge ahead — and
re-derives it when the clock crosses the next edge or a window is
scheduled. :class:`repro.simnet.network.StarNetwork` consults
:meth:`FaultInjector.drop_reason` once per packet at the router unless
the injector is :attr:`~FaultInjector.faultless`, counts the verdicts
(``packets_dropped`` / ``bytes_dropped``), then reads ``quiet_from`` /
``quiet_until`` to tell whether the packet's flight to its downlink is
clear of edges.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from dataclasses import dataclass
from math import inf
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .engine import SimulationError

__all__ = ["FaultInjector", "Outage", "Partition", "DIRECTIONS"]

#: Valid link directions: "up" is node → router, "down" is router → node.
DIRECTIONS = ("up", "down")


def _check_direction(direction: str) -> Tuple[str, ...]:
    if direction == "both":
        return DIRECTIONS
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be 'up', 'down' or 'both', not {direction!r}")
    return (direction,)


@dataclass(frozen=True)
class Outage:
    """A scheduled black-hole window on one node's link(s)."""

    node_id: int
    direction: str  # "up" | "down"
    start: float
    end: float

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class Partition:
    """A scheduled window during which two node sets cannot talk."""

    side_a: FrozenSet[int]
    side_b: FrozenSet[int]
    start: float
    end: float

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def separates(self, src: int, dst: int) -> bool:
        return (src in self.side_a and dst in self.side_b) or (
            src in self.side_b and dst in self.side_a
        )


class FaultInjector:
    """A seeded, replayable fault plan for one simulation.

    The injector is consulted by the network once per packet; it never
    schedules its own drops, so determinism follows directly from the
    engine's deterministic event order. Bandwidth degradation is the
    one stateful fault: it is applied by scheduled events that scale a
    live :class:`repro.simnet.network.Link`'s ``rate_factor``, which
    requires :meth:`bind`-ing the injector to its network (done by
    ``StarNetwork.__init__``).
    """

    def __init__(self, sim, seed: int = 0, loss_rate: float = 0.0) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.default_loss_rate = 0.0
        self._link_loss: Dict[Tuple[int, str], float] = {}
        #: The plan as scheduled, never pruned: ``outage_active`` and
        #: ``partitioned`` answer from it for any instant.
        self.outages: List[Outage] = []
        self.partitions: List[Partition] = []
        #: Every instant at which a window of the plan (outage,
        #: partition, degradation) opens or closes, sorted.
        self.edges: List[float] = []
        #: The stretch the clock stood in at the last refresh: the last
        #: edge at or before it, the first after it, and what holds in
        #: between — the links down and the partitions open.
        self.quiet_from = -inf
        self.quiet_until = inf
        self._down: Set[Tuple[int, str]] = set()
        self._open: List[Partition] = []
        self._network = None
        #: See :attr:`faultless`.
        self._faultless = True
        #: See :meth:`plan_loss`.
        self._loss_planned = False
        #: Set by a transport that chose its direct path, which keeps no
        #: copy of a segment in flight (:mod:`repro.simnet.transport`):
        #: a fault added now would lose packets silently, so a positive
        #: loss rate and every window raise
        #: :class:`~repro.simnet.engine.SimulationError` from then on.
        self.sealed = False
        if loss_rate:
            self.set_loss_rate(loss_rate)

    @property
    def faultless(self) -> bool:
        """True while no loss is configured and no window (loss
        included) was ever scheduled — the common (paper-faithful)
        case, in which every verdict is None and the router does not
        ask for one. Nothing touches the RNG either way: the Bernoulli
        draw is skipped at p == 0."""
        return self._faultless

    def _refuse_if_sealed(self, what: str) -> None:
        if self.sealed:
            raise SimulationError(
                f"{what} on a sealed fault injector: the transport chose its lossless "
                "path at the first send, so faults must be planned before the run starts"
            )

    def bind(self, network) -> None:
        """Attach to the network whose links degradations will scale."""
        self._network = network

    # -- random loss ---------------------------------------------------------
    def set_loss_rate(
        self, rate: float, node_id: "Optional[int]" = None, direction: "Optional[str]" = None
    ) -> None:
        """Set the per-packet drop probability of one link direction.

        With ``node_id=None`` the rate becomes the default for every
        link; otherwise it overrides the default for that node's
        ``direction`` ("up", "down" or both when ``None``).
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if rate:
            self._refuse_if_sealed("a loss rate")
        if node_id is None:
            self.default_loss_rate = rate
        else:
            for d in _check_direction(direction if direction is not None else "both"):
                self._link_loss[(node_id, d)] = rate
        self._refresh_faultless()

    def loss_rate(self, node_id: int, direction: str) -> float:
        return self._link_loss.get((node_id, direction), self.default_loss_rate)

    def _refresh_faultless(self) -> None:
        self._faultless = (
            self.default_loss_rate == 0.0
            and not any(self._link_loss.values())
            and not self.edges
            and not self._loss_planned
        )

    def plan_loss(self) -> None:
        """Declare a loss window its caller will open later with
        :meth:`set_loss_rate`. The injector is not :attr:`faultless`
        from now on, though nothing is lost before the window opens: a
        transport choosing its path in between must choose the ARQ. No
        edge joins the timeline: loss is a per-packet draw, not a state
        a packet in flight must see change."""
        self._refuse_if_sealed("a loss window")
        self._loss_planned = True
        self._faultless = False

    # -- scheduled faults -----------------------------------------------------
    def schedule_outage(
        self, node_id: int, at: float, duration: float, direction: str = "both"
    ) -> None:
        """Black-hole ``node_id``'s link(s) during ``[at, at+duration)``."""
        self._refuse_if_sealed("an outage")
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        end = at + duration
        self.outages.extend(Outage(node_id, d, at, end) for d in _check_direction(direction))
        self._add_edges(at, end)

    def schedule_partition(
        self, side_a: "Iterable[int]", side_b: "Iterable[int]", at: float, duration: float
    ) -> None:
        """Split the network into two halves during ``[at, at+duration)``."""
        self._refuse_if_sealed("a partition")
        if duration <= 0:
            raise ValueError("partition duration must be positive")
        a, b = frozenset(side_a), frozenset(side_b)
        if a & b:
            raise ValueError(f"partition sides overlap: {sorted(a & b)}")
        end = at + duration
        self.partitions.append(Partition(a, b, at, end))
        self._add_edges(at, end)

    def schedule_degradation(
        self, node_id: int, at: float, duration: float, factor: float, direction: str = "both"
    ) -> None:
        """Scale ``node_id``'s link rate by ``factor`` during the window.

        The opening edge scales the links the node has then; the closing
        edge restores those of them that are still attached. A node that
        attaches or re-attaches mid-window has fresh full-rate links and
        keeps them (a rebooted host gets a clean interface). A packet
        already past the router when this call puts an edge into its
        flight keeps the rate it was folded at.
        """
        self._refuse_if_sealed("a degradation")
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if duration <= 0:
            raise ValueError("degradation duration must be positive")
        if at < self.sim.now:
            raise ValueError("cannot schedule a degradation in the past")
        if self._network is None:
            raise RuntimeError("bandwidth degradation requires a bound network")
        directions = _check_direction(direction)
        scaled: list = []
        edge = self._scale_links
        opening = self.sim.schedule_at(at, edge, node_id, directions, factor, scaled, False)
        # 1.0 / factor, multiplied in: factor * (1.0 / factor) is not
        # always 1.0, and pinned runs replay the product.
        closing = self.sim.schedule_at(
            at + duration, edge, node_id, directions, 1.0 / factor, scaled, True
        )
        # the instants the engine rounded to, not the ones asked for
        self._add_edges(opening, closing)

    def _scale_links(
        self, node_id: int, directions: Tuple[str, ...], factor: float, scaled: list, closing: bool
    ) -> None:
        """One edge of a degradation window. ``scaled`` travels with
        both of its events: the ``Link`` objects the opening edge found
        and scaled, the only ones the closing edge may scale back."""
        for d in directions:
            links = self._network.uplinks if d == "up" else self._network.downlinks
            link = links.get(node_id)
            if link is None:
                continue
            if not closing:
                scaled.append(link)
            elif link not in scaled:
                continue
            link.rate_factor *= factor

    # -- the timeline ----------------------------------------------------------
    def _add_edges(self, start: float, end: float) -> None:
        insort(self.edges, start)
        insort(self.edges, end)
        self._faultless = False
        self._refresh()

    def _refresh(self) -> None:
        """Re-derive the present stretch of the timeline from the plan."""
        now = self.sim.now
        edges = self.edges
        ahead = bisect_right(edges, now)
        self.quiet_from = edges[ahead - 1] if ahead else -inf
        self.quiet_until = edges[ahead] if ahead < len(edges) else inf
        self._down = {(o.node_id, o.direction) for o in self.outages if o.start <= now < o.end}
        self._open = [p for p in self.partitions if p.start <= now < p.end]

    # -- the per-packet verdict -----------------------------------------------
    def outage_active(self, node_id: int, direction: str, now: float) -> bool:
        return any(
            o.node_id == node_id and o.direction == direction and o.active(now)
            for o in self.outages
        )

    def partitioned(self, src: int, dst: int, now: float) -> bool:
        return any(p.active(now) and p.separates(src, dst) for p in self.partitions)

    def drop_reason(self, src: int, dst: int) -> "Optional[str]":
        """Decide one packet's fate; None means it survives.

        Deterministic faults (outage, partition) are checked before the
        random draw so they never consume RNG state — editing the fault
        plan does not shift the loss pattern of unrelated packets.
        """
        if self._faultless:
            return None
        if self.sim.now >= self.quiet_until:
            self._refresh()
        down = self._down
        if down and ((src, "up") in down or (dst, "down") in down):
            return "outage"
        for partition in self._open:
            if partition.separates(src, dst):
                return "partition"
        p_up = p_down = self.default_loss_rate
        if self._link_loss:
            p_up = self._link_loss.get((src, "up"), p_up)
            p_down = self._link_loss.get((dst, "down"), p_down)
        p = 1.0 - (1.0 - p_up) * (1.0 - p_down)
        if p > 0.0 and self.rng.random() < p:
            return "loss"
        return None
