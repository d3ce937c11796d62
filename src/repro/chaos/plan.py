"""Declarative, seeded fault plans runnable on both substrates.

A :class:`FaultPlan` is a *timeline* — crash, crash-then-restart,
partition, per-link loss, bandwidth degradation, frame-reorder and
directory-outage events, each anchored at a plan-relative time — that
compiles onto whichever substrate hosts the run:

* **sim** — :meth:`FaultPlan.compile_sim` maps every event onto the
  existing :class:`repro.simnet.faults.FaultInjector` APIs (outages,
  partitions, loss-rate windows, degradations) plus scheduled
  ``RacNode.stop`` calls for permanent crashes. Compiling a plan never
  touches the injector's RNG stream out of order, so lossless runs
  without a plan keep their determinism fingerprints.
* **live** — :class:`repro.chaos.supervisor.ChaosSupervisor` plays the
  same timeline against a :class:`repro.live.cluster.LiveCluster`,
  driving the :class:`repro.chaos.proxy.ChaosProxy` fault shim for
  network shaping and killing/restarting real nodes for crash events.

Events reference nodes by **creation index** (0-based bootstrap order),
never by node id: indices are the substrate-neutral names, and both
substrates build the identical population for one seed (see
:func:`repro.core.identity.build_population`), so index ``i`` is the
same participant everywhere.

Two backends given the same plan must agree on *what happens when*;
:meth:`FaultPlan.fingerprint` hashes the normalized schedule so tests
can assert exactly that.

Substrate asymmetries, stated once: the simulator approximates a
crash-restart as a both-direction link outage (the node's in-memory
state survives, where a real restarted process loses it — recorded as a
compile note); frame reordering has no sim analogue (the simulator's
event order is already deterministic) and compiles to a note; a
directory outage only exists on live (the simulator has no rendezvous
process).
"""

from __future__ import annotations

import hashlib
import random
import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "smoke_plan",
    "storm_plan",
    "CANNED_PLANS",
    "canned_plan",
]

#: Event kinds, in the (arbitrary but fixed) order used to break ties
#: between events scheduled at the same instant.
KINDS = ("crash", "partition", "loss", "degrade", "reorder", "directory_outage")


@dataclass(frozen=True)
class FaultEvent:
    """One timeline entry. Which fields are meaningful depends on
    ``kind``; the :class:`FaultPlan` builder methods are the only
    sanctioned constructors."""

    kind: str
    at: float
    duration: float = 0.0
    node: "Optional[int]" = None  # creation index
    side_a: "Tuple[int, ...]" = ()
    side_b: "Tuple[int, ...]" = ()
    rate: float = 0.0
    factor: float = 1.0
    window: int = 0
    restart_after: "Optional[float]" = None

    @property
    def end(self) -> float:
        """When the fault heals (crash-restarts heal at restart time;
        permanent crashes never do and report ``inf``)."""
        if self.kind == "crash":
            return float("inf") if self.restart_after is None else self.at + self.restart_after
        return self.at + self.duration

    def sort_key(self):
        return (self.at, KINDS.index(self.kind), self.node if self.node is not None else -1,
                self.side_a, self.side_b)

    def describe(self) -> str:
        if self.kind == "crash":
            if self.restart_after is None:
                return f"t={self.at:g}s crash node#{self.node} (no restart)"
            return f"t={self.at:g}s crash node#{self.node}, restart after {self.restart_after:g}s"
        if self.kind == "partition":
            return (
                f"t={self.at:g}s partition {list(self.side_a)} | {list(self.side_b)} "
                f"for {self.duration:g}s"
            )
        if self.kind == "loss":
            scope = "all links" if self.node is None else f"node#{self.node}"
            return f"t={self.at:g}s loss {self.rate:.0%} on {scope} for {self.duration:g}s"
        if self.kind == "degrade":
            return (
                f"t={self.at:g}s degrade node#{self.node} to {self.factor:.0%} bandwidth "
                f"for {self.duration:g}s"
            )
        if self.kind == "reorder":
            return (
                f"t={self.at:g}s reorder node#{self.node} frames (window {self.window}) "
                f"for {self.duration:g}s"
            )
        if self.kind == "directory_outage":
            return f"t={self.at:g}s directory outage for {self.duration:g}s"
        return f"t={self.at:g}s {self.kind}"


class FaultPlan:
    """A seeded, declarative fault timeline for one chaos run.

    ``seed`` feeds every random draw downstream of the plan (the live
    proxy's Bernoulli drops and reorder shuffles); the *schedule* itself
    is whatever the builder calls constructed, so two plans built the
    same way are identical regardless of seed.
    """

    def __init__(self, seed: int = 0, horizon: float = 60.0) -> None:
        if horizon <= 0:
            raise ValueError("plan horizon must be positive")
        self.seed = seed
        #: End of the run the plan is written for; permanent crashes
        #: black-hole the victim's links until here on the simulator.
        self.horizon = horizon
        self.events: "List[FaultEvent]" = []

    # -- builders -------------------------------------------------------------
    def _add(self, event: FaultEvent) -> "FaultPlan":
        if event.at < 0:
            raise ValueError("fault events cannot be scheduled before t=0")
        self.events.append(event)
        return self

    def crash(self, node: int, at: float) -> "FaultPlan":
        """Kill node ``node`` (creation index) at ``at``; no restart."""
        return self._add(FaultEvent("crash", at, node=node))

    def crash_restart(self, node: int, at: float, downtime: float) -> "FaultPlan":
        """Kill node ``node`` at ``at`` and restart it ``downtime``
        seconds later with the same identity material."""
        if downtime <= 0:
            raise ValueError("crash downtime must be positive")
        return self._add(FaultEvent("crash", at, node=node, restart_after=downtime))

    def partition(
        self, side_a: "Iterable[int]", side_b: "Iterable[int]", at: float, duration: float
    ) -> "FaultPlan":
        """Black-hole all traffic between two index sets for the window."""
        a = tuple(sorted(set(side_a)))
        b = tuple(sorted(set(side_b)))
        if set(a) & set(b):
            raise ValueError(f"partition sides overlap: {sorted(set(a) & set(b))}")
        if not a or not b:
            raise ValueError("both partition sides need at least one node")
        if duration <= 0:
            raise ValueError("partition duration must be positive")
        return self._add(FaultEvent("partition", at, duration=duration, side_a=a, side_b=b))

    def loss(
        self, rate: float, at: float, duration: float, node: "Optional[int]" = None
    ) -> "FaultPlan":
        """Bernoulli-drop frames at ``rate`` during the window, on one
        node's links (``node``) or everywhere (``None``)."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if duration <= 0:
            raise ValueError("loss window duration must be positive")
        return self._add(FaultEvent("loss", at, duration=duration, rate=rate, node=node))

    def degrade(self, node: int, factor: float, at: float, duration: float) -> "FaultPlan":
        """Scale one node's link bandwidth by ``factor`` for the window
        (the live proxy models this as per-frame serialization delay)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if duration <= 0:
            raise ValueError("degradation duration must be positive")
        return self._add(FaultEvent("degrade", at, duration=duration, node=node, factor=factor))

    def reorder(self, node: int, window: int, at: float, duration: float) -> "FaultPlan":
        """Shuffle one node's outbound frames within ``window``-frame
        batches for the window (live proxy only; sim no-op by design)."""
        if window < 2:
            raise ValueError("reorder window must hold at least 2 frames")
        if duration <= 0:
            raise ValueError("reorder window duration must be positive")
        return self._add(FaultEvent("reorder", at, duration=duration, node=node, window=window))

    def directory_outage(self, at: float, duration: float) -> "FaultPlan":
        """Take the live rendezvous directory down for the window."""
        if duration <= 0:
            raise ValueError("directory outage duration must be positive")
        return self._add(FaultEvent("directory_outage", at, duration=duration))

    # -- the normalized timeline ----------------------------------------------
    def schedule(self) -> "List[FaultEvent]":
        """The events in deterministic play order (time, then kind)."""
        return sorted(self.events, key=FaultEvent.sort_key)

    def fingerprint(self) -> str:
        """SHA-256 over the normalized schedule — the cross-backend
        determinism comparand (same plan ⇒ same fingerprint ⇒ both
        substrates play the identical event timeline)."""
        digest = hashlib.sha256()
        digest.update(f"seed={self.seed};horizon={self.horizon:g}".encode())
        for event in self.schedule():
            digest.update(repr(event).encode())
        return digest.hexdigest()

    def to_dict(self) -> "Dict[str, Any]":
        """The canonical form :meth:`fingerprint` hashes, as JSON-ready
        data: seed, horizon and the normalized schedule."""
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "events": [dataclasses.asdict(event) for event in self.schedule()],
        }

    @classmethod
    def from_dict(cls, body: "Dict[str, Any]") -> "FaultPlan":
        plan = cls(seed=int(body["seed"]), horizon=float(body["horizon"]))
        for event in body["events"]:
            sides = {side: tuple(event[side]) for side in ("side_a", "side_b")}
            plan._add(FaultEvent(**{**event, **sides}))
        return plan

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def validate(self, population: int) -> None:
        """Reject events that reference nodes outside the population or
        fall outside the horizon."""
        for event in self.events:
            indices = set(event.side_a) | set(event.side_b)
            if event.node is not None:
                indices.add(event.node)
            bad = [i for i in indices if not 0 <= i < population]
            if bad:
                raise ValueError(f"{event.describe()}: node index {bad[0]} outside 0..{population - 1}")
            if event.at >= self.horizon:
                raise ValueError(f"{event.describe()}: scheduled at/after the {self.horizon:g}s horizon")

    def fault_windows(self) -> "List[Tuple[str, float, float]]":
        """``(kind, start, heal_time)`` for every *healing* fault — the
        windows the invariant checker's liveness bound is anchored to.
        Permanent crashes never heal and are excluded; directory outages
        do not gate node-to-node delivery and are excluded too."""
        windows = []
        for event in self.schedule():
            if event.kind == "directory_outage":
                continue
            if event.kind == "crash" and event.restart_after is None:
                continue
            windows.append((event.kind, event.at, event.end))
        return windows

    def render(self) -> str:
        lines = [f"fault plan: seed {self.seed}, horizon {self.horizon:g}s, "
                 f"{len(self.events)} events, fingerprint {self.fingerprint()[:16]}"]
        lines.extend(f"  {event.describe()}" for event in self.schedule())
        return "\n".join(lines)

    # -- sim backend ----------------------------------------------------------
    def compile_sim(self, system, node_ids: "List[int]") -> "List[str]":
        """Arm the plan on a :class:`repro.core.system.RacSystem`.

        Must be called *before* ``system.run`` crosses the first event
        time. Returns the compile notes — events with no sim analogue,
        each recorded rather than silently dropped.
        """
        self.validate(len(node_ids))
        notes: "List[str]" = []
        restore_rate = system.config.link_loss_rate
        for event in self.schedule():
            if event.kind == "crash":
                victim = node_ids[event.node]
                if event.restart_after is None:
                    # Dead host: the state machine stops and the links
                    # black-hole for the rest of the run.
                    system.sim.schedule_at(event.at, self._sim_stop_node, system, victim)
                    system.faults.schedule_outage(
                        victim, event.at, max(self.horizon - event.at, 1e-3), direction="both"
                    )
                else:
                    # Sim approximation: a reboot is a link outage; the
                    # node's in-memory state survives where a real
                    # restarted process would rebuild it from the roster.
                    system.faults.schedule_outage(
                        victim, event.at, event.restart_after, direction="both"
                    )
                    notes.append(
                        f"{event.describe()}: sim models the reboot as a link outage "
                        "(state survives)"
                    )
            elif event.kind == "partition":
                system.faults.schedule_partition(
                    [node_ids[i] for i in event.side_a],
                    [node_ids[i] for i in event.side_b],
                    event.at,
                    event.duration,
                )
            elif event.kind == "loss":
                target = None if event.node is None else node_ids[event.node]
                system.sim.schedule_at(event.at, system.set_loss_rate, event.rate, target)
                system.sim.schedule_at(event.end, system.set_loss_rate, restore_rate, target)
            elif event.kind == "degrade":
                system.faults.schedule_degradation(
                    node_ids[event.node], event.at, event.duration, event.factor
                )
            elif event.kind == "reorder":
                notes.append(
                    f"{event.describe()}: no sim analogue (simulated delivery order is "
                    "already deterministic); applied on the live substrate only"
                )
            elif event.kind == "directory_outage":
                notes.append(
                    f"{event.describe()}: the simulator has no directory process; "
                    "applied on the live substrate only"
                )
        return notes

    @staticmethod
    def _sim_stop_node(system, node_id: int) -> None:
        node = system.nodes.get(node_id)
        if node is not None and node.active:
            node.stop()

    # -- canned plans ---------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        population: int,
        horizon: float,
        *,
        events: "Optional[int]" = None,
        max_downtime: "Optional[float]" = None,
        max_window: "Optional[float]" = None,
    ) -> "FaultPlan":
        """A seeded random storm: same seed, same storm, any substrate.

        Unset knobs derive from scale instead of assuming smoke-sized
        runs: the event count grows with the population (one extra
        fault per 8 nodes, capped at 40) so a 256-node storm is not
        six lonely faults, and the fault windows shrink with short
        horizons (never longer than ``horizon/8``) so every window +
        its heal bound still fits before the fault-free tail. Callers
        with tighter timer contracts (e.g. the sharded substrate's
        sub-second misbehaviour timers) pass explicit caps.
        """
        if population < 4:
            raise ValueError("a random storm needs at least 4 nodes")
        if events is None:
            events = max(6, min(population // 8, 40))
        if max_window is None:
            max_window = min(2.0, horizon / 8.0)
        if max_downtime is None:
            max_downtime = max_window
        if max_window <= 0.3 or max_downtime <= 0.3:
            raise ValueError(
                "storm fault windows need headroom above the 0.3s minimum "
                f"draw (got max_window={max_window!r}, "
                f"max_downtime={max_downtime!r})"
            )
        rng = random.Random(seed ^ 0x57A5E)
        plan = cls(seed=seed, horizon=horizon)
        # Leave the first tenth quiet (bootstrap) and the last third
        # fault-free so every window's heal bound fits inside the run.
        t_lo, t_hi = horizon * 0.1, horizon * 0.66
        for _ in range(events):
            at = rng.uniform(t_lo, t_hi)
            kind = rng.choice(("crash_restart", "partition", "loss", "degrade"))
            if kind == "crash_restart":
                plan.crash_restart(
                    rng.randrange(population), at, rng.uniform(0.3, max_downtime)
                )
            elif kind == "partition":
                indices = list(range(population))
                rng.shuffle(indices)
                cut = rng.randint(1, population - 1)
                plan.partition(
                    indices[:cut], indices[cut:], at, rng.uniform(0.3, max_window)
                )
            elif kind == "loss":
                plan.loss(
                    rng.uniform(0.02, 0.15),
                    at,
                    rng.uniform(0.5, max_window),
                    node=rng.randrange(population) if rng.random() < 0.5 else None,
                )
            else:
                plan.degrade(
                    rng.randrange(population),
                    rng.uniform(0.25, 0.75),
                    at,
                    rng.uniform(0.5, max_window),
                )
        return plan


def smoke_plan(population: int, horizon: float, seed: int = 0) -> FaultPlan:
    """The CI smoke timeline: one crash-restart and one partition, both
    healed well before the horizon so the heal-bound check has room."""
    if population < 4:
        raise ValueError("the smoke plan needs at least 4 nodes")
    plan = FaultPlan(seed=seed, horizon=horizon)
    third = horizon / 3.0
    plan.crash_restart(1, at=round(third * 0.6, 3), downtime=round(third * 0.5, 3))
    half = population // 2
    plan.partition(
        range(half), range(half, population), at=round(third * 1.6, 3),
        duration=round(third * 0.5, 3),
    )
    return plan


def storm_plan(
    population: int,
    horizon: float,
    seed: int = 0,
    *,
    events: "Optional[int]" = None,
    max_downtime: "Optional[float]" = None,
    max_window: "Optional[float]" = None,
) -> FaultPlan:
    """A denser seeded storm for soaks: random crashes, partitions,
    loss and degradation windows, plus one frame-reorder window.

    Scale knobs left unset derive from (population, horizon) via
    :meth:`FaultPlan.random` — at smoke scale (≤ 48 nodes, ≥ 16 s
    horizons) that reproduces the historical six-event/2 s-window
    storm byte-for-byte, while N=256 storms get proportionally more
    events with windows that still respect the misbehaviour-timer
    contract (fault windows must heal faster than the timers convict).
    """
    plan = FaultPlan.random(
        seed, population, horizon,
        events=events, max_downtime=max_downtime, max_window=max_window,
    )
    plan.reorder(0, window=4, at=round(horizon * 0.3, 3), duration=round(horizon * 0.2, 3))
    return plan


_CANNED = {
    "none": lambda population, horizon, seed=0: FaultPlan(seed=seed, horizon=horizon),
    "smoke": smoke_plan,
    "storm": storm_plan,
}

#: The canned timelines every entry point accepts by name. ``none`` is
#: the baseline: an empty plan, zero fault windows.
CANNED_PLANS = tuple(_CANNED)


def canned_plan(name: str, nodes: int, horizon: float, seed: int = 0) -> FaultPlan:
    """A canned fault timeline by name; unknown names list the known ones."""
    builder = _CANNED.get(name)
    if builder is None:
        raise ValueError(
            f"unknown fault plan {name!r}; known plans: " + ", ".join(CANNED_PLANS)
        )
    return builder(nodes, horizon, seed=seed)
