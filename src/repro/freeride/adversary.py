"""Opponent (adversary) behaviours: Section V-A's active attacks.

Opponents differ from freeriders: they spend resources to *break
anonymity* or to get correct nodes evicted. The paper's active-opponent
analysis (Section V-A2) considers exactly these moves:

* dropping relayed onions to force senders onto fresh paths
  (:class:`PathDropOpponent`, attack "case 1");
* false accusations trying to cross eviction thresholds
  (:class:`FalseAccuser`, attack "case 2");
* replaying messages to mark them through the network
  (:class:`ReplayAttacker`, footnote 7);
* flooding above the protocol rate (:class:`Flooder`, Lemma 7's
  opponent).

Each attack is detected or bounded by the corresponding defence, which
the integration tests exercise one by one.
"""

from __future__ import annotations

from ..core.behavior import HonestBehavior
from ..core.messages import Accusation

__all__ = ["PathDropOpponent", "ReplayAttacker", "FalseAccuser", "Flooder"]


class PathDropOpponent(HonestBehavior):
    """Drops the onions it should relay, hoping the sender re-paths onto
    an all-opponent path. Bounded: each drop burns the opponent node
    with that sender forever (relays blacklist)."""

    name = "path-drop-opponent"

    def __init__(self) -> None:
        self.dropped = 0

    def should_relay_onion(self, node, peel_result) -> bool:
        self.dropped += 1
        return False


class ReplayAttacker(HonestBehavior):
    """Sends every ring copy twice (the replay attack of footnote 7).

    Detected immediately: the duplicate copy from the same
    (predecessor, ring) triggers a replay accusation at every
    successor.
    """

    name = "replay-attacker"

    def __init__(self, copies: int = 2) -> None:
        if copies < 2:
            raise ValueError("a replay attacker sends at least 2 copies")
        self.copies = copies

    def replay_copies(self, node) -> int:
        return self.copies


class FalseAccuser(HonestBehavior):
    """Floods fabricated accusations against a chosen victim.

    Cannot evict alone: accusations only count from the victim's
    *followers* (and each follower counts once), so fewer than t+1
    colluding followers achieve nothing — the property Section V-A2
    case 2 relies on.
    """

    name = "false-accuser"

    def __init__(self, victim: int, reason: str = "missing-copy") -> None:
        self.victim = victim
        self.reason = reason
        self.accusations_sent = 0

    def on_tick(self, node) -> None:
        domain = node.group_domain_id()
        accusation = Accusation(node.node_id, self.victim, domain, self.reason, None)
        node._ingest_accusation(accusation)
        node._flood_control(accusation, node.env.domain_view(domain))
        self.accusations_sent += 1


class Flooder(HonestBehavior):
    """Originates ``extra_per_tick`` additional noise messages per slot
    (a resource-exhaustion opponent). Trips the rate-high check."""

    name = "flooder"

    def __init__(self, extra_per_tick: int = 8) -> None:
        if extra_per_tick < 1:
            raise ValueError("a flooder sends at least one extra message")
        self.extra_per_tick = extra_per_tick

    def on_tick(self, node) -> None:
        from ..core.onion import build_noise, unwrap_wire
        from ..crypto.hashes import message_id

        for _ in range(self.extra_per_tick):
            wire = build_noise(node.config.message_size, node.rng)
            node._originate(node.group_domain_id(), wire, message_id(unwrap_wire(wire)))
