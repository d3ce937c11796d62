"""Coalition adversaries: coordinated multi-node deviations.

The paper's eviction guarantee (Section IV-C) is argued for *colluding*
fractions up to f·G: the relay-blacklist shuffle evicts on
``floor(f·G)+1`` distinct lists naming an accused, so ≤ f·G colluders
can neither frame an honest member on their own nor veto an eviction
decided by the honest majority. Everything in :mod:`repro.freeride`
before this module deviates unilaterally; the classes here share state
through a :class:`CoalitionCoordinator` and deviate *together*:

* :class:`CoalitionShield` — every member free-rides on relay duty
  (the Lemma-2 deviation, reliably detected when unilateral) while all
  members censor fellow members out of their own ``blacklist_share``,
  trying to keep the shuffle tally under the f·G+1 quorum;
* :class:`CoalitionFrame` — members follow the protocol on the data
  plane but stuff an honest victim into every shuffle contribution,
  trying to manufacture the quorum the paper says needs > f·G
  colluders;
* :class:`CoalitionStagger` — exactly one member free-rides at a time,
  rotating between blacklist-shuffle rounds, betting that per-member
  suspicion accumulates too slowly to ever cross the quorum.

**Determinism contract.** The coordinator is *immutable after
construction* and every decision is a pure function of
``(member roster, victims, rotation period, sim time)``. That is what
lets a coalition span shard bundles: each shard process builds its own
coordinator from the same :class:`~repro.simnet.shard.ScaleSpec`
planning data, and all replicas agree on every decision without any
cross-shard channel — the same property that keeps the sharded run
equivalent to the monolithic one (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.behavior import HonestBehavior

__all__ = [
    "COALITION_MODES",
    "CoalitionCoordinator",
    "CoalitionMember",
    "CoalitionShield",
    "CoalitionFrame",
    "CoalitionStagger",
    "COALITION_CLASSES",
    "build_coalition",
]

#: The coordinated strategies this module ships, by mode name.
COALITION_MODES = ("shield", "frame", "stagger")


class CoalitionCoordinator:
    """Shared, *frozen* state of one colluding coalition.

    ``member_ids`` are the node ids of every coalition member (across
    all shards, when sharded); ``victims`` are the honest node ids a
    framing coalition votes onto relay blacklists; ``rotation_period``
    is the stagger duty-cycle length in sim seconds — align it with
    (a multiple of) ``RacConfig.blacklist_period`` so the active
    deviant changes between shuffle rounds, as the rotation is meant
    to exploit the round structure.
    """

    def __init__(
        self,
        mode: str,
        member_ids: "Iterable[int]" = (),
        victims: "Iterable[int]" = (),
        rotation_period: float = 1.5,
    ) -> None:
        if mode not in COALITION_MODES:
            raise ValueError(
                f"unknown coalition mode {mode!r}; known modes: "
                + ", ".join(COALITION_MODES)
            )
        if rotation_period <= 0:
            raise ValueError("coalition rotation period must be positive")
        self.mode = mode
        #: Sorted roster — the rotation order, identical in every
        #: process that builds this coalition from the same spec.
        self.member_ids: "Tuple[int, ...]" = tuple(sorted(set(member_ids)))
        self.victims: "Tuple[int, ...]" = tuple(sorted(set(victims)))
        overlap = set(self.member_ids) & set(self.victims)
        if overlap:
            raise ValueError(f"coalition members cannot be their own victims: {sorted(overlap)}")
        self.rotation_period = rotation_period
        self._members = frozenset(self.member_ids)

    def __len__(self) -> int:
        return len(self.member_ids)

    def is_member(self, node_id: int) -> bool:
        return node_id in self._members

    # -- the three coordinated decisions --------------------------------------
    def censored_share(self, entries: "Sequence[int]") -> "Tuple[int, ...]":
        """Mutual shielding: the honest share minus fellow members."""
        return tuple(e for e in entries if e not in self._members)

    def framed_share(self, entries: "Sequence[int]") -> "Tuple[int, ...]":
        """Framing: the honest share plus every victim, deduplicated."""
        share = list(entries)
        seen = set(share)
        for victim in self.victims:
            if victim not in seen:
                share.append(victim)
                seen.add(victim)
        return tuple(share)

    def active_member(self, now: float) -> "Optional[int]":
        """The staggered coalition's on-duty free-rider at ``now``.

        A pure function of time and the frozen roster, so every
        process — and every shard — agrees on who is on duty without
        communicating.
        """
        if not self.member_ids:
            return None
        slot = int(now / self.rotation_period)
        return self.member_ids[slot % len(self.member_ids)]

    def on_duty(self, node) -> bool:
        return self.active_member(node.env.now) == node.node_id

    def describe(self) -> str:
        body = f"{self.mode} coalition of {len(self.member_ids)}"
        if self.victims:
            body += f", {len(self.victims)} victim(s)"
        if self.mode == "stagger":
            body += f", rotation {self.rotation_period:g}s"
        return body


class CoalitionMember(HonestBehavior):
    """Base class: a node acting on a shared coordinator's decisions."""

    def __init__(self, coordinator: CoalitionCoordinator) -> None:
        self.coordinator = coordinator


class CoalitionShield(CoalitionMember):
    """Mass free-riding under mutual shielding.

    Every member refuses relay duty (Lemma 2's deviation) and censors
    fellow members out of its shuffle contribution. The shield only
    matters once the coalition is large enough that the withheld lists
    could have completed a quorum — below that, the honest majority
    convicts every member exactly as it convicts a lone silent relay.
    """

    name = "coalition-shield"

    def __init__(self, coordinator: CoalitionCoordinator) -> None:
        super().__init__(coordinator)
        self.refused = 0

    def should_relay_onion(self, node, peel_result) -> bool:
        self.refused += 1
        return False

    def blacklist_share(self, node) -> "Tuple[int, ...]":
        return self.coordinator.censored_share(node.relays_blacklist.members())


class CoalitionFrame(CoalitionMember):
    """Coordinated framing: vote honest victims onto relay blacklists.

    Members are protocol-compliant on the data plane (nothing for the
    checks to convict — the shuffle is anonymous, Lemma 4) but each
    contributes the victim set in every round. The eviction quorum is
    ``floor(f·G)+1`` distinct lists, so the attack must fail for
    coalitions of ≤ f·G members and succeed immediately above — the
    sharp soundness onset the coalition frontier measures.
    """

    name = "coalition-frame"

    def blacklist_share(self, node) -> "Tuple[int, ...]":
        return self.coordinator.framed_share(node.relays_blacklist.members())


class CoalitionStagger(CoalitionMember):
    """Staggered free-riding: one active deviant per shuffle round.

    The on-duty member (rotated by the coordinator's clock) drops its
    relay duty; everyone else behaves. Because honest suspicion is
    *cumulative* — a sender that ever caught a member keeps it
    blacklisted, and every shuffle round re-counts the full lists —
    rotation stretches time-to-conviction by roughly the coalition
    size instead of defeating detection; the frontier measures where
    that stretch crosses the detection bound.
    """

    name = "coalition-stagger"

    def __init__(self, coordinator: CoalitionCoordinator) -> None:
        super().__init__(coordinator)
        self.refused = 0

    def should_relay_onion(self, node, peel_result) -> bool:
        if self.coordinator.on_duty(node):
            self.refused += 1
            return False
        return True


#: mode -> member class, for builders that plant whole coalitions.
COALITION_CLASSES = {
    "shield": CoalitionShield,
    "frame": CoalitionFrame,
    "stagger": CoalitionStagger,
}


def build_coalition(
    mode: str,
    member_ids: "Sequence[int]",
    *,
    victims: "Sequence[int]" = (),
    rotation_period: float = 1.5,
) -> "Dict[int, CoalitionMember]":
    """One behavior instance per member, all sharing one coordinator.

    Returns ``{node_id: behavior}``; callers translate node ids to
    whatever indexing their bootstrap path wants. ``mode`` must be one
    of :data:`COALITION_MODES`; framing requires at least one victim.
    """
    if not member_ids:
        raise ValueError("a coalition needs at least one member")
    if mode == "frame" and not victims:
        raise ValueError("a framing coalition needs at least one victim")
    coordinator = CoalitionCoordinator(
        mode, member_ids, victims=victims, rotation_period=rotation_period
    )
    member_class = COALITION_CLASSES[mode]
    return {node_id: member_class(coordinator) for node_id in coordinator.member_ids}
