"""Blacklists and eviction evidence (Section IV-C).

Each node maintains *"a blacklist per channel for suspected
predecessors, a blacklist for their group for suspected predecessors,
and a blacklist for suspected relays"*. Predecessor blacklists travel
as clear accusations in their domain; the relay blacklist travels
anonymously through the Dissent shuffle, because it can reveal who sent
which onion.

A node is removed from the views once evidence accumulates:

* (t + 1) of its followers in one domain accuse it, with t the maximum
  number of opponent followers, on the rings the replica holds now; or
* (f·G + 1) distinct members of its group blacklist it as a relay.

A node outside the evidence removes it once ⌊f·G⌋ + 1 distinct ids in
its group's interval sent eviction notices. :class:`EvictionTracker` tallies
all three and emits eviction verdicts. It is pure bookkeeping — "is
the accuser a follower?" is a predicate over the replica's rings that
the caller passes, so the class stays testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from .messages import DomainId

__all__ = ["BLACKLIST_SLOTS", "BlacklistEntry", "Blacklist", "EvictionTracker"]

#: Lemma 4: every relay blacklist in a round has the same fixed length,
#: so a member contributes at most this many ids.
BLACKLIST_SLOTS = 16

Follows = Callable[[int, int], bool]


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

    def members(self) -> "Tuple[int, ...]":
        return tuple(sorted(self._entries))

    def entry(self, node_id: int) -> "Optional[BlacklistEntry]":
        return self._entries.get(node_id)


class EvictionTracker:
    """Accumulates accusations until an eviction threshold is crossed.

    One instance per node. It holds every accusation and notice, counts those whose accuser
    ``follows`` the accused on the present rings (a notifier: lies in its group's interval)
    and counts again after each removal (:meth:`rejudge`, :meth:`notice_verdicts`), so no
    verdict depends on arrival order. A relay round counts each list as a set, for the same reason.
    """

    __slots__ = (
        "_predecessor_threshold",
        "_relay_threshold",
        "_accusers",
        "_rate_high_filers",
        "_notices",
        "evicted",
    )

    def __init__(
        self,
        predecessor_threshold: int,
        relay_threshold: Callable[[int], int],
    ) -> None:
        self._predecessor_threshold = predecessor_threshold
        self._relay_threshold = relay_threshold
        #: accused -> (domain, rate-high?) -> every accuser held
        self._accusers: Dict[int, Dict[Tuple[DomainId, bool], Set[int]]] = {}
        #: domain -> nodes that themselves filed a rate-high accusation
        self._rate_high_filers: Dict[DomainId, Set[int]] = {}
        #: accused -> every (notifier, kind) eviction notice held about it
        self._notices: Dict[int, Set[Tuple[int, str]]] = {}
        self.evicted: Set[int] = set()

    # -- predecessor evidence ------------------------------------------------
    def record_predecessor_accusation(
        self,
        accuser: int,
        accused: int,
        domain: DomainId,
        follows: Follows,
    ) -> "Optional[int]":
        """Tally one clear accusation; returns the accused id if the
        (t+1)-followers threshold is now crossed, else ``None``.

        Accusations from non-followers are held but not counted — only
        a node's direct successors can observe the misbehaviours of
        checks 2/3, so anyone else accusing is lying.
        """
        return self._hold(accuser, accused, (domain, False), follows)

    def _hold(self, accuser: int, accused: int, tally: Tuple[DomainId, bool], follows: Follows) -> Optional[int]:
        if accuser == accused:
            return None
        accusers = self._accusers.setdefault(accused, {}).setdefault(tally, set())
        accusers.add(accuser)
        counts = follows(accuser, accused) and self._verdict(accused, tally[1], accusers, follows)
        return accused if counts else None

    def _verdict(self, accused: int, rate_high: bool, accusers: Set[int], follows: Follows) -> bool:
        """(t+1) accusers count: a predecessor verdict (evicted) or a rate-high candidate."""
        counted = sum(follows(accuser, accused) for accuser in accusers)
        if accused in self.evicted or counted < self._predecessor_threshold:
            return False
        if not rate_high:
            self.evicted.add(accused)
        return True

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
        self, accuser: int, accused: int, domain: DomainId, follows: Follows
    ) -> "Optional[int]":
        """Tally a rate-high accusation; returns the accused id when the
        follower threshold is crossed (an eviction *candidate* — the
        caller must check :meth:`is_excused_rate_high` after a grace
        period and then :meth:`confirm_eviction`)."""
        self._rate_high_filers.setdefault(domain, set()).add(accuser)
        return self._hold(accuser, accused, (domain, True), follows)

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

    def rejudge(self, follows_in: Callable[[DomainId], Optional[Follows]]) -> List[Tuple[int, DomainId, bool]]:
        """Count every held tally again, judged by ``follows_in(domain)`` (None: gone);
        ``(accused, domain, rate-high?)`` per verdict, bar excused candidates."""
        found = []
        for accused, tallies in self._accusers.items():
            for (domain, rate_high), accusers in tallies.items():
                follows = follows_in(domain)
                if follows is not None and self._verdict(accused, rate_high, accusers, follows):
                    if not rate_high or not self.is_excused_rate_high(accused, domain):
                        found.append((accused, domain, rate_high))
        return found

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

    def record_notice(self, notifier: int, accused: int, kind: str) -> None:
        """Hold one eviction notice; a repeat is a no-op."""
        self._notices.setdefault(accused, set()).add((notifier, kind))

    def notice_verdicts(self, group_holding: Callable[[int], Any]) -> Iterator[Tuple[int, int, int, str]]:
        """``(accused, gid, notifier, kind)`` once ⌊f·|D|⌋ + 1 distinct ids D covers sent
        notices, D the accused's ``group_holding`` when reached: the lowest counted notice."""
        for accused, notices in sorted(self._notices.items()):
            group = group_holding(accused)
            counted = sorted(notice for notice in notices if group is not None and group.covers(notice[0]))
            if counted and len({notifier for notifier, _kind in counted}) >= self._relay_threshold(len(group)):
                yield (accused, group.gid, *counted[0])

    # -- lifecycle ----------------------------------------------------------------
    def forget(self, node_id: int) -> None:
        """Drop all evidence about a node (it left or was evicted)."""
        self._accusers.pop(node_id, None)
        self._notices.pop(node_id, None)
