"""Behaviour hooks: the decision points a node can deviate on.

The Nash-equilibrium proof of Section V-B enumerates the unilateral
deviations available to a freerider (Lemmas 1-7): skip forwarding, skip
relaying, skip the checks, lie in the shuffle, drop join requests, stop
sending noise. Dropping join requests (Lemma 5) is modelled at system
level (see :mod:`repro.freeride.strategies`), so it has no hook here.
:class:`HonestBehavior` answers every hook the way the protocol
demands; the strategies in :mod:`repro.freeride.strategies` and
:mod:`repro.freeride.adversary` override individual hooks, which lets
the experiments measure exactly what each deviation costs its deviator.

The hooks receive the :class:`repro.core.node.RacNode` so strategies
can inspect state, but well-behaved hooks must not mutate it.
"""

from __future__ import annotations

__all__ = ["HonestBehavior"]


class HonestBehavior:
    """The protocol-compliant behaviour (the Nash equilibrium point)."""

    name = "honest"

    def should_forward_broadcast(self, node, domain, msg_id, ring_index) -> bool:
        """Lemma 1: forward every first-seen message on every ring."""
        return True

    def should_relay_onion(self, node, peel_result) -> bool:
        """Lemma 2: re-broadcast every onion layer addressed to us."""
        return True

    def should_send_noise(self, node) -> bool:
        """Lemma 6: keep the constant rate with noise when idle."""
        return True

    def should_run_checks(self, node) -> bool:
        """Lemmas 3 and 7: watch predecessors (rate + completeness)."""
        return True

    def blacklist_share(self, node) -> "tuple[int, ...]":
        """Lemma 4: contribute the true relay blacklist to the shuffle."""
        return node.relays_blacklist.members()

    def replay_copies(self, node) -> int:
        """How many copies to send per (successor, ring): honest = 1.

        Values above 1 model the replay attack of footnote 7.
        """
        return 1

    def on_tick(self, node) -> None:
        """Called once per origination slot; active attackers use it to
        inject extra traffic (flooding, false accusations)."""

