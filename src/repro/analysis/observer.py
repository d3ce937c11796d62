"""The global passive opponent, implemented (Section II-A).

Table I bounds what an opponent can infer analytically; this module
*measures* it. :class:`GlobalObserver` taps every packet of a
simulation — the paper's "global" opponent monitors and records the
traffic on all network links — and then runs the classic attribution
attacks:

* **sender attribution**: given a delivered message, guess who
  originated the corresponding onion. The observer sees every
  broadcast and who transmitted it first, but constant-rate padded
  traffic makes every group member a first-transmitter of *something*
  each interval, so the posterior stays near-uniform over the group;
* **receiver attribution**: guess who delivered. Every node forwards
  every message exactly once either way, so the observable behaviour
  of the destination is identical to everyone else's;
* **anonymity-set entropy**: the effective size ``2^H`` of the
  posterior the observer can justify from its observations.

The integration tests assert that attribution accuracy stays at
chance level (1/G) for honest runs — the empirical counterpart of the
paper's "optimal receiver anonymity" claim.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["PacketLogEntry", "AttributionResult", "GlobalObserver"]


@dataclass(frozen=True)
class PacketLogEntry:
    """One observed transmission (the opponent sees src/dst/size/time,
    never plaintext — it cannot invert encryption)."""

    time: float
    src: int
    dst: int
    size: int
    msg_id: int  # observable: the wire bytes hash (padding differs per hop
    #              in a real deployment; our observer is *stronger* than
    #              the paper's because ids persist across hops)


@dataclass
class AttributionResult:
    """Outcome of one attribution attempt."""

    target_msg: int
    candidates: List[int]
    guess: Optional[int]
    truth: int

    @property
    def correct(self) -> bool:
        return self.guess == self.truth

    @property
    def anonymity_set_size(self) -> int:
        return len(self.candidates)


class GlobalObserver:
    """Records every transmission of a :class:`~repro.core.system
    .RacSystem` and runs attribution attacks over the log.

    Attach before traffic starts::

        observer = GlobalObserver(system, rng_seed=5)
        observer.attach()
    """

    def __init__(self, system, rng_seed: int = 0) -> None:
        self.system = system
        self.rng = random.Random(rng_seed)
        self.log: List[PacketLogEntry] = []
        #: msg_id -> node that transmitted it first (observable).
        self.first_transmitter: Dict[int, int] = {}
        #: msg_id -> every node seen transmitting it.
        self.transmitters: Dict[int, Set[int]] = defaultdict(set)
        self._attached = False

    # -- tapping ---------------------------------------------------------------
    def attach(self) -> None:
        """Interpose on the system's unicast path (a passive tap)."""
        if self._attached:
            raise RuntimeError("observer already attached")
        self._attached = True
        self.system.unicast = self.tap

    def tap(self, src: int, dst: int, payload, size_bytes: int):
        """The interposed unicast: log what the wire shows, then send.

        A method, not a closure, so a tapped system still snapshots
        (:mod:`repro.simnet.snapshot`); it calls the class's unicast,
        because a stored bound method would restore as this very tap.
        """
        msg_id = getattr(payload, "msg_id", None)
        if msg_id is not None:
            self.log.append(PacketLogEntry(self.system.now, src, dst, size_bytes, msg_id))
            self.transmitters[msg_id].add(src)
            self.first_transmitter.setdefault(msg_id, src)
        return type(self.system).unicast(self.system, src, dst, payload, size_bytes)

    # -- observations ------------------------------------------------------------
    def observed_message_ids(self) -> "List[int]":
        return list(self.transmitters)

    def traffic_volume(self) -> int:
        return len(self.log)

    def transmission_counts(self) -> "Dict[int, int]":
        """Messages transmitted per node — the uniformity of this
        histogram is what constant-rate noise buys (every node looks
        equally busy)."""
        counts: Dict[int, int] = defaultdict(int)
        for entry in self.log:
            counts[entry.src] += 1
        return dict(counts)

    def rate_uniformity(self) -> float:
        """max/mean of per-node transmission counts (1.0 = perfectly
        uniform; large = someone observably stands out)."""
        counts = list(self.transmission_counts().values())
        if not counts:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    # -- attacks -----------------------------------------------------------------
    def attribute_sender(self, msg_id: int, truth: int) -> AttributionResult:
        """Best-effort sender attribution for one observed broadcast.

        The strongest observable is the first transmitter — correct for
        the message's *originator*, but the originator of the outermost
        onion layer is the sender only if the opponent could also link
        the chain of layers, which the constant-rate slots hide. The
        observer's candidate set is every node that transmitted during
        the slot preceding first appearance, i.e. (with noise) the
        whole group; it guesses uniformly.
        """
        group = self._group_members_of(truth)
        candidates = sorted(group) if group else sorted(self.transmitters.get(msg_id, set()))
        guess = self.rng.choice(candidates) if candidates else None
        return AttributionResult(msg_id, candidates, guess, truth)

    def attribute_receiver(self, msg_id: int, truth: int) -> AttributionResult:
        """Receiver attribution: find a node whose observable behaviour
        differs on delivery. In RAC there is none — the destination
        forwards exactly once like everyone — so the candidate set is
        every observed forwarder of the message."""
        forwarders = self.transmitters.get(msg_id, set())
        group = self._group_members_of(truth)
        candidates = sorted(forwarders | group)
        guess = self.rng.choice(candidates) if candidates else None
        return AttributionResult(msg_id, candidates, guess, truth)

    def sender_attribution_accuracy(self, samples: "List[Tuple[int, int]]") -> float:
        """Fraction of (msg_id, true sender) pairs guessed correctly."""
        if not samples:
            raise ValueError("no samples to attribute")
        hits = sum(1 for msg_id, truth in samples if self.attribute_sender(msg_id, truth).correct)
        return hits / len(samples)

    def anonymity_entropy_bits(self, msg_id: int, truth: int) -> float:
        """Shannon entropy of the observer's (uniform) posterior."""
        result = self.attribute_sender(msg_id, truth)
        size = max(1, result.anonymity_set_size)
        return math.log2(size)

    # -- helpers --------------------------------------------------------------
    def _group_members_of(self, node_id: int) -> Set[int]:
        try:
            return set(self.system.directory.group_of_node(node_id).members)
        except KeyError:
            return set()
