"""Dissent v2 over the packet simulator.

Packet-level counterpart of :mod:`repro.baselines.dissent_v2`: clients
submit sealed messages to their assigned server over the star network,
the server tier runs the sequential anonymization pass among
themselves, and the winning batch is fanned out to every client. The
measured round time exposes the *server bottleneck* directly — the
reason Figure 1's middle curve decays even with the optimal S ≈ √N.

Phases:

1. **submit** — client → its server (sealed, one message);
2. **collect** — servers forward their unsealed batch share to server 0;
3. **anonymize** — server k permutes and re-ships the whole batch to
   server k+1 (each hop pays the full batch's serialization);
4. **fan-out** — the last server ships the batch to every server, and
   each server to each of its clients.

Crypto note: the servers' mixing here uses the accountable-shuffle
participants only for *permutation* bookkeeping; the anonymity-bearing
sealing (client → server) is real. This matches the functional
baseline's fidelity level and keeps the packet simulation tractable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.costs import optimal_server_count
from ..crypto.keys import KeyPair, seal
from ..simnet.engine import Simulator
from ..simnet.network import StarNetwork
from ..simnet.transport import ReliableTransport
from .dissent_v2 import spread_evenly

__all__ = ["DissentV2SimResult", "DissentV2Sim"]


@dataclass(frozen=True)
class _ClientSubmit:
    client: int
    blob: bytes


@dataclass(frozen=True)
class _ServerShare:
    server: int
    batch: tuple


@dataclass(frozen=True)
class _MixBatch:
    stage: int
    batch: tuple


@dataclass(frozen=True)
class _FanOut:
    batch: tuple


@dataclass
class DissentV2SimResult:
    """Outcome of one packet-level Dissent v2 round."""

    success: bool
    round_time: float
    messages: Optional[List[bytes]]
    bytes_on_wire: int

    def per_client_goodput_bps(self, message_length: int) -> float:
        if self.round_time <= 0:
            return 0.0
        return message_length * 8 / self.round_time


class DissentV2Sim:
    """N clients behind S trusted servers, on the star network.

    Node ids: servers are 0..S-1, clients are S..S+N-1.
    """

    def __init__(
        self,
        client_count: int,
        server_count: "Optional[int]" = None,
        message_length: int = 1000,
        bandwidth_bps: float = 50e6,
        seed: int = 0,
    ) -> None:
        if client_count < 2:
            raise ValueError("need at least two clients")
        self.n = client_count
        self.s = server_count if server_count is not None else optimal_server_count(client_count)
        if self.s < 2:
            raise ValueError("Dissent v2 needs at least two servers")
        self.message_length = message_length
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.network = StarNetwork(self.sim, bandwidth_bps)
        self.transport = ReliableTransport(self.network)
        self.server_keys = [KeyPair.generate("sim", seed=seed * 997 + i) for i in range(self.s)]
        self.assignment = spread_evenly(client_count, self.s)

        self._server_batches: Dict[int, List[bytes]] = {i: [] for i in range(self.s)}
        self._collected: Dict[int, tuple] = {}
        self._client_results: Dict[int, List[bytes]] = {}
        self._round_done_at: Optional[float] = None

        for server in range(self.s):
            self.transport.attach(server, self._make_server_handler(server))
        for client in range(self.s, self.s + self.n):
            self.transport.attach(client, self._make_client_handler(client))

    # -- handlers ------------------------------------------------------------
    def _make_server_handler(self, server: int):
        def handler(src: int, payload) -> None:
            if isinstance(payload, _ClientSubmit):
                blob = self.server_keys[server].unseal(payload.blob)
                self._server_batches[server].append(blob)
                expected = sum(1 for c, srv in self.assignment.items() if srv == server)
                if len(self._server_batches[server]) == expected:
                    share = tuple(self._server_batches[server])
                    if server == 0:
                        self._on_share(0, share)
                    else:
                        size = sum(len(b) for b in share)
                        self.transport.send(server, 0, _ServerShare(server, share), size)
            elif isinstance(payload, _ServerShare):
                self._on_share(payload.server, payload.batch)
            elif isinstance(payload, _MixBatch):
                self._mix_and_pass(server, payload.batch)
            elif isinstance(payload, _FanOut):
                for client, srv in self.assignment.items():
                    if srv == server:
                        size = sum(len(b) for b in payload.batch)
                        self.transport.send(
                            server, self.s + client, _FanOut(payload.batch), size
                        )

        return handler

    def _on_share(self, server: int, share: tuple) -> None:
        self._collected[server] = share
        if len(self._collected) == self.s:
            batch = tuple(b for srv in range(self.s) for b in self._collected[srv])
            self._mix_and_pass(0, batch)

    def _mix_and_pass(self, server: int, batch: tuple) -> None:
        mixed = list(batch)
        random.Random(self.rng.getrandbits(32)).shuffle(mixed)
        mixed = tuple(mixed)
        size = sum(len(b) for b in mixed)
        if server + 1 < self.s:
            self.transport.send(server, server + 1, _MixBatch(server + 1, mixed), size)
        else:
            for other in range(self.s):
                if other != server:
                    self.transport.send(server, other, _FanOut(mixed), size)
            # The last server serves its own clients directly.
            for client, srv in self.assignment.items():
                if srv == server:
                    self.transport.send(server, self.s + client, _FanOut(mixed), size)

    def _make_client_handler(self, client: int):
        def handler(src: int, payload) -> None:
            if isinstance(payload, _FanOut) and client not in self._client_results:
                self._client_results[client] = [b.rstrip(b"\x00") for b in payload.batch]
                if len(self._client_results) == self.n:
                    self._round_done_at = self.sim.now

        return handler

    # -- driving -------------------------------------------------------------
    def run_round(self, messages: "List[bytes]") -> DissentV2SimResult:
        if len(messages) != self.n:
            raise ValueError("exactly one message per client")
        padded = [m.ljust(self.message_length, b"\x00") for m in messages]
        for m in padded:
            if len(m) != self.message_length:
                raise ValueError("message exceeds the fixed length")
        start = self.sim.now
        for client, message in enumerate(padded):
            server = self.assignment[client]
            blob = seal(self.server_keys[server].public, message, seed=self.rng.getrandbits(62))
            self.transport.send(self.s + client, server, _ClientSubmit(client, blob), len(blob))
        self.sim.run()
        if self._round_done_at is None:
            return DissentV2SimResult(False, 0.0, None, self.network.bytes_delivered)
        any_client = next(iter(self._client_results))
        return DissentV2SimResult(
            success=True,
            round_time=self._round_done_at - start,
            messages=self._client_results[any_client],
            bytes_on_wire=self.network.bytes_delivered,
        )
