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

:class:`repro.simnet.network.StarNetwork` consults
:meth:`FaultInjector.drop_reason` once per packet at the router and
counts the verdicts (``packets_dropped`` / ``bytes_dropped``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["FaultInjector", "Outage", "Partition", "DIRECTIONS"]

_WINDOW_END = attrgetter("end")

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
        #: (node_id, direction) -> that link's outage windows, and every
        #: partition window; both latest-ending first, so the windows
        #: that have ended are a tail the per-packet verdict pops off.
        self._outages: Dict[Tuple[int, str], List[Outage]] = {}
        self.partitions: List[Partition] = []
        self._network = None
        #: True while no loss/outage/partition is configured at all —
        #: the common (paper-faithful) case, in which the per-packet
        #: verdict short-circuits without touching the RNG (it would
        #: not draw anyway: the Bernoulli draw is skipped at p == 0).
        self._faultless = True
        if loss_rate:
            self.set_loss_rate(loss_rate)

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
            and not any(self._outages.values())
            and not self.partitions
        )

    # -- scheduled faults -----------------------------------------------------
    def schedule_outage(
        self, node_id: int, at: float, duration: float, direction: str = "both"
    ) -> None:
        """Black-hole ``node_id``'s link(s) during ``[at, at+duration)``."""
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        for d in _check_direction(direction):
            windows = self._outages.setdefault((node_id, d), [])
            windows.append(Outage(node_id, d, at, at + duration))
            windows.sort(key=_WINDOW_END, reverse=True)
        self._faultless = False

    def schedule_partition(
        self, side_a: "Iterable[int]", side_b: "Iterable[int]", at: float, duration: float
    ) -> None:
        """Split the network into two halves during ``[at, at+duration)``."""
        if duration <= 0:
            raise ValueError("partition duration must be positive")
        a, b = frozenset(side_a), frozenset(side_b)
        if a & b:
            raise ValueError(f"partition sides overlap: {sorted(a & b)}")
        self.partitions.append(Partition(a, b, at, at + duration))
        self.partitions.sort(key=_WINDOW_END, reverse=True)
        self._faultless = False

    def schedule_degradation(
        self, node_id: int, at: float, duration: float, factor: float, direction: str = "both"
    ) -> None:
        """Scale ``node_id``'s link rate by ``factor`` during the window.

        Applied to the live links at the window edges; a node that
        detaches and re-attaches mid-window comes back with fresh
        full-rate links (a rebooted host gets a clean interface).
        From this call on the network takes the two-event router →
        downlink hop (``StarNetwork.overtaking_free`` goes off for good).
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if duration <= 0:
            raise ValueError("degradation duration must be positive")
        if at < self.sim.now:
            raise ValueError("cannot schedule a degradation in the past")
        if self._network is None:
            raise RuntimeError("bandwidth degradation requires a bound network")
        self._network.overtaking_free = False
        directions = _check_direction(direction)
        self.sim.schedule_at(at, self._scale_links, node_id, directions, factor)
        self.sim.schedule_at(at + duration, self._scale_links, node_id, directions, 1.0 / factor)

    def _scale_links(self, node_id: int, directions: Tuple[str, ...], factor: float) -> None:
        for d in directions:
            links = self._network.uplinks if d == "up" else self._network.downlinks
            link = links.get(node_id)
            if link is not None:
                link.rate_factor *= factor

    # -- the per-packet verdict -----------------------------------------------
    # ``outage_active`` and ``partitioned`` answer for the present and the
    # future: windows that ended before the simulation clock may already
    # have been dropped by the per-packet path below.
    def outage_active(self, node_id: int, direction: str, now: float) -> bool:
        return any(o.active(now) for o in self._outages.get((node_id, direction), ()))

    def partitioned(self, src: int, dst: int, now: float) -> bool:
        return any(p.active(now) and p.separates(src, dst) for p in self.partitions)

    def _link_down(self, link: Tuple[int, str], now: float) -> bool:
        """:meth:`outage_active` for the per-packet path: the clock the
        router asks with never runs backwards, so windows that have
        ended are dropped instead of being scanned again."""
        windows = self._outages.get(link)
        if not windows:
            return False
        while windows[-1].end <= now:
            windows.pop()
            if not windows:
                return False
        for outage in windows:
            if outage.start <= now:
                return True
        return False

    def drop_reason(self, src: int, dst: int) -> "Optional[str]":
        """Decide one packet's fate; None means it survives.

        Deterministic faults (outage, partition) are checked before the
        random draw so they never consume RNG state — editing the fault
        plan does not shift the loss pattern of unrelated packets.
        """
        if self._faultless:
            return None
        now = self.sim.now
        if self._link_down((src, "up"), now) or self._link_down((dst, "down"), now):
            return "outage"
        partitions = self.partitions
        while partitions and partitions[-1].end <= now:
            partitions.pop()
        for partition in partitions:
            if partition.start <= now and partition.separates(src, dst):
                return "partition"
        p_up = p_down = self.default_loss_rate
        if self._link_loss:
            p_up = self._link_loss.get((src, "up"), p_up)
            p_down = self._link_loss.get((dst, "down"), p_down)
        p = 1.0 - (1.0 - p_up) * (1.0 - p_down)
        if p > 0.0 and self.rng.random() < p:
            return "loss"
        return None
