"""Blacklists and eviction evidence (Section IV-C).

Each node maintains *"a blacklist per channel for suspected
predecessors, a blacklist for their group for suspected predecessors,
and a blacklist for suspected relays"*. Predecessor blacklists travel
as clear accusations in their domain; the relay blacklist travels
anonymously through the Dissent shuffle, because it can reveal who sent
which onion.

A node is removed from the views once evidence accumulates:

* (t + 1) of its followers in one domain accuse it, with t the maximum
  number of opponent followers; or
* (f·G + 1) distinct members of its group blacklist it as a relay.

A node outside the evidence removes it once ⌊f·G⌋ + 1 distinct members
of its group sent eviction notices. :class:`EvictionTracker` tallies
all three and emits eviction verdicts. It is pure bookkeeping —
validation of "is the accuser really a follower?" is delegated to a
callable so the class stays testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .messages import DomainId

__all__ = ["BLACKLIST_SLOTS", "BlacklistEntry", "Blacklist", "EvictionTracker"]

#: Lemma 4: every relay blacklist in a round has the same fixed length,
#: so a member contributes at most this many ids.
BLACKLIST_SLOTS = 16


@dataclass(frozen=True, slots=True)
class BlacklistEntry:
    """Why a node was locally blacklisted."""

    accused: int
    reason: str
    at_time: float


class Blacklist:
    """A node's local blacklist (relay or per-domain predecessor)."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, BlacklistEntry] = {}

    def add(self, accused: int, reason: str, now: float) -> bool:
        """Blacklist ``accused``; True if this is a new entry."""
        if accused in self._entries:
            return False
        self._entries[accused] = BlacklistEntry(accused, reason, now)
        return True

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def members(self) -> "Tuple[int, ...]":
        return tuple(sorted(self._entries))

    def entry(self, node_id: int) -> "Optional[BlacklistEntry]":
        return self._entries.get(node_id)

    def discard(self, node_id: int) -> None:
        self._entries.pop(node_id, None)


class EvictionTracker:
    """Accumulates accusations until an eviction threshold is crossed.

    One instance per (simulated) node; in a real deployment every node
    runs the same tally over the same broadcast accusations and shuffle
    output and reaches the same verdicts deterministically. A relay
    round counts each list as a set, so their order changes no verdict.
    """

    __slots__ = (
        "_predecessor_threshold",
        "_relay_threshold",
        "_predecessor_accusers",
        "_rate_high_accusers",
        "_rate_high_filers",
        "_notifiers",
        "evicted",
    )

    def __init__(
        self,
        predecessor_threshold: Callable[[DomainId], int],
        relay_threshold: Callable[[int], int],
    ) -> None:
        self._predecessor_threshold = predecessor_threshold
        self._relay_threshold = relay_threshold
        #: accused -> domain -> accuser set
        self._predecessor_accusers: Dict[int, Dict[DomainId, Set[int]]] = {}
        #: rate-high accusations, tallied apart (see below)
        self._rate_high_accusers: Dict[int, Dict[DomainId, Set[int]]] = {}
        #: domain -> nodes that themselves filed a rate-high accusation
        self._rate_high_filers: Dict[DomainId, Set[int]] = {}
        #: accused -> members that sent an eviction notice about it
        self._notifiers: Dict[int, Set[int]] = {}
        self.evicted: Set[int] = set()

    # -- predecessor evidence ------------------------------------------------
    def record_predecessor_accusation(
        self,
        accuser: int,
        accused: int,
        domain: DomainId,
        accuser_is_follower: bool,
    ) -> "Optional[int]":
        """Tally one clear accusation; returns the accused id if the
        (t+1)-followers threshold is now crossed, else ``None``.

        Accusations from non-followers are ignored — only a node's
        direct successors can observe the misbehaviours of checks 2/3,
        so anyone else accusing is lying.
        """
        if not accuser_is_follower or accused in self.evicted or accuser == accused:
            return None
        domains = self._predecessor_accusers.setdefault(accused, {})
        accusers = domains.setdefault(domain, set())
        accusers.add(accuser)
        if len(accusers) >= self._predecessor_threshold(domain):
            self.evicted.add(accused)
            return accused
        return None

    def predecessor_accuser_count(self, accused: int, domain: DomainId) -> int:
        return len(self._predecessor_accusers.get(accused, {}).get(domain, set()))

    # -- rate-high evidence (flood attribution) --------------------------------
    #
    # Flooding cannot be attributed by counting alone: everyone forwards
    # the flood, so all streams carry it. First-copy timing marks the
    # flood's *propagation tree*, in which every node's upstream
    # neighbour looks like a flooder. The tree's root — the actual
    # flooder — is the one accused node that accuses nobody, so a
    # rate-high eviction is *excused* if the accused itself filed a
    # rate-high accusation in the same domain. The node applies a grace
    # delay before finalizing so excuses have time to arrive.
    def record_rate_high_accusation(
        self, accuser: int, accused: int, domain: DomainId, accuser_is_follower: bool
    ) -> "Optional[int]":
        """Tally a rate-high accusation; returns the accused id when the
        follower threshold is crossed (an eviction *candidate* — the
        caller must check :meth:`is_excused_rate_high` after a grace
        period and then :meth:`confirm_eviction`)."""
        self._rate_high_filers.setdefault(domain, set()).add(accuser)
        if not accuser_is_follower or accused in self.evicted or accuser == accused:
            return None
        domains = self._rate_high_accusers.setdefault(accused, {})
        accusers = domains.setdefault(domain, set())
        accusers.add(accuser)
        if len(accusers) >= self._predecessor_threshold(domain):
            return accused
        return None

    def is_excused_rate_high(self, accused: int, domain: DomainId) -> bool:
        """True when the accused blamed an upstream itself (flood tree
        member, not the root)."""
        return accused in self._rate_high_filers.get(domain, set())

    def confirm_eviction(self, accused: int) -> bool:
        """Finalize a deferred (rate-high) eviction; False if stale."""
        if accused in self.evicted:
            return False
        self.evicted.add(accused)
        return True

    # -- relay evidence ------------------------------------------------------
    def record_relay_round(self, group_size: int, shuffled_blacklists: "List[Tuple[int, ...]]") -> "List[int]":
        """Tally one anonymous shuffle round of relay blacklists.

        Each member contributed exactly one (anonymous) blacklist, so
        the number of lists naming B equals the number of distinct
        accusers. Returns newly evicted node ids.
        """
        votes: Dict[int, int] = {}
        for blacklist in shuffled_blacklists:
            for accused in set(blacklist):
                votes[accused] = votes.get(accused, 0) + 1
        newly_evicted: List[int] = []
        threshold = self._relay_threshold(group_size)
        for accused, count in votes.items():
            if count >= threshold and accused not in self.evicted:
                self.evicted.add(accused)
                newly_evicted.append(accused)
        return newly_evicted

    def record_notice(self, notifier: int, accused: int) -> "Optional[int]":
        """Tally one eviction notice: how many distinct members have now
        notified about ``accused``, or ``None`` for a repeat notifier."""
        notifiers = self._notifiers.setdefault(accused, set())
        if notifier in notifiers:
            return None
        notifiers.add(notifier)
        return len(notifiers)

    # -- lifecycle ----------------------------------------------------------------
    def forget(self, node_id: int) -> None:
        """Drop all evidence about a node (it left or was evicted)."""
        self._predecessor_accusers.pop(node_id, None)
        self._notifiers.pop(node_id, None)
