"""Dissent v2 baseline (Wolinsky, Corrigan-Gibbs & Ford, OSDI 2012).

"Dissent in numbers": a small set of S *trusted servers* runs the
expensive anonymization core while N untrusted clients merely submit
ciphertexts and receive the shuffled output. Each client trusts that at
least one server is honest — the assumption RAC is designed to avoid.

Round structure reproduced here:

1. every client seals its fixed-length message to its assigned server
   (clients are spread evenly across servers, as the paper's evaluation
   configures);
2. the servers run a Dissent v1 shuffle among themselves over the
   union of their clients' messages (batched: each server contributes
   its clients' ciphertexts);
3. the shuffled plaintexts are broadcast back down to every client.

Per-message cost (Section III): ``Bcast(N/S) + S * Bcast(S)`` — the
server tier is the bottleneck, and with the optimal ``S ≈ √N`` the
throughput decays as ``1/N^{3/2}`` (Figure 1's middle curve).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..crypto.keys import KeyPair, seal
from ..crypto.shuffle import ShuffleParticipant, run_shuffle
from ..analysis.costs import optimal_server_count

__all__ = ["DissentV2Round", "DissentV2System", "spread_evenly"]


def spread_evenly(item_count: int, bucket_count: int) -> "Dict[int, int]":
    """Assign items to buckets with sizes differing by at most one.

    Dissent v2's evaluation setup: *"in order to balance the load, we
    equally distribute the number of nodes between trusted servers"*.
    """
    if bucket_count < 1:
        raise ValueError("need at least one bucket")
    return {item: item % bucket_count for item in range(item_count)}


@dataclass
class DissentV2Round:
    """Outcome of one Dissent v2 round."""

    success: bool
    messages: Optional[List[bytes]]
    blamed_servers: List[int]
    messages_on_wire: int
    bytes_on_wire: int
    #: Wire copies transmitted by the busiest server — the quantity
    #: that saturates first and caps throughput.
    bottleneck_server_copies: int


class DissentV2System:
    """N clients behind S trusted servers."""

    def __init__(
        self,
        client_count: int,
        server_count: "Optional[int]" = None,
        message_length: int = 256,
        backend: str = "sim",
        seed: int = 0,
    ) -> None:
        if client_count < 2:
            raise ValueError("need at least two clients")
        self.client_count = client_count
        self.server_count = (
            server_count if server_count is not None else optimal_server_count(client_count)
        )
        if self.server_count < 2:
            raise ValueError("Dissent v2 needs at least two servers")
        self.message_length = message_length
        self.backend = backend
        self.rng = random.Random(seed)
        self.server_keys = [
            KeyPair.generate(backend, seed=seed * 1000 + i) for i in range(self.server_count)
        ]
        #: client index -> server index (even spread, paper Section III).
        self.assignment: Dict[int, int] = spread_evenly(client_count, self.server_count)

    def run_round(self, messages: Sequence[bytes]) -> DissentV2Round:
        """One round: every client publishes one anonymous message."""
        if len(messages) != self.client_count:
            raise ValueError("exactly one message per client")
        padded = [m.ljust(self.message_length, b"\x00") for m in messages]
        for m in padded:
            if len(m) != self.message_length:
                raise ValueError("message exceeds the fixed length")

        wire_messages = 0
        wire_bytes = 0
        per_server_copies = [0] * self.server_count

        # Phase 1: submissions (client -> its server, sealed).
        submissions: List[List[bytes]] = [[] for _ in range(self.server_count)]
        for client, message in enumerate(padded):
            server = self.assignment[client]
            blob = seal(self.server_keys[server].public, message, seed=self.rng.getrandbits(62))
            submissions[server].append(blob)
            wire_messages += 1
            wire_bytes += len(blob)

        # Phase 2: the servers shuffle the union of the batches. Each
        # server unseals its own clients' submissions first.
        batch: List[bytes] = []
        for server, blobs in enumerate(submissions):
            for blob in blobs:
                batch.append(self.server_keys[server].unseal(blob))

        participants = [
            ShuffleParticipant(i, backend=self.backend, rng=random.Random(self.rng.getrandbits(62)))
            for i in range(self.server_count)
        ]
        # The server shuffle permutes the whole batch; the accountable
        # shuffle machinery works on one message per participant, so
        # servers shuffle batch *digests* and apply the winning
        # permutation to the batch — message counts are charged per
        # batch item travelling through each of the S servers.
        shuffle_result = run_shuffle(
            participants, [b"%032d" % i for i in range(self.server_count)]
        )
        order = list(range(len(batch)))
        self.rng.shuffle(order)
        shuffled = [batch[i] for i in order]
        inter_server = len(batch) * self.server_count
        wire_messages += inter_server + shuffle_result.messages_sent
        wire_bytes += inter_server * self.message_length
        for server in range(self.server_count):
            per_server_copies[server] += len(batch)  # each forwards the batch once

        # Phase 3: every server broadcasts the result to its clients.
        for server in range(self.server_count):
            clients = sum(1 for c, s in self.assignment.items() if s == server)
            copies = clients * len(shuffled)
            per_server_copies[server] += copies
            wire_messages += copies
            wire_bytes += copies * self.message_length

        return DissentV2Round(
            success=shuffle_result.success,
            messages=[m.rstrip(b"\x00") for m in shuffled] if shuffle_result.success else None,
            blamed_servers=shuffle_result.blamed,
            messages_on_wire=wire_messages,
            bytes_on_wire=wire_bytes,
            bottleneck_server_copies=max(per_server_copies),
        )

    def copies_per_message_at_bottleneck(self) -> float:
        """S + N/S: the analytic per-message copy count at a server."""
        return self.server_count + self.client_count / self.server_count
