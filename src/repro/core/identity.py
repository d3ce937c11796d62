"""Deterministic node identity material.

One RAC participant is defined by its two keypairs, the puzzle-derived
node id (Section IV-C's group-assignment puzzle) and the seed of its
private RNG. :func:`generate_node_material` draws all of that from a
shared system RNG in a **pinned order** — it is the exact sequence
:class:`repro.core.system.RacSystem` has always used, extracted so the
live runtime (:mod:`repro.live`) can rebuild byte-identical populations
outside the simulator: the sim/live parity harness depends on both
substrates running *the same* nodes with *the same* keys.

Changing the draw order here changes every fixed-seed fingerprint in
``tests/integration/test_determinism.py``; treat it as frozen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..crypto.keys import KeyPair
from ..groups.assignment import PuzzleSolution, solve_puzzle
from .config import RacConfig

__all__ = [
    "NodeMaterial",
    "generate_node_material",
    "build_population",
    "PopulationFactory",
]


@dataclass(frozen=True)
class NodeMaterial:
    """Everything needed to instantiate one node deterministically."""

    #: 1-based creation index (the low digits of the key seed).
    index: int
    node_id: int
    id_keypair: KeyPair
    pseudonym_keypair: KeyPair
    puzzle: PuzzleSolution
    #: Seed of the node's private ``random.Random``.
    node_seed: int


def generate_node_material(rng: random.Random, key_seed: int, config: RacConfig) -> NodeMaterial:
    """Draw one node's identity from ``rng``.

    Consumes the RNG in the pinned order: 48 bits of key-seed base, the
    puzzle search, then 62 bits for the node's private RNG seed.
    """
    base = rng.getrandbits(48) * 1000 + key_seed
    id_keypair = KeyPair.generate(config.key_backend, seed=base * 2)
    pseudonym_keypair = KeyPair.generate(config.key_backend, seed=base * 2 + 1)
    puzzle = solve_puzzle(id_keypair.public.key_id, config.puzzle_bits, rng=rng)
    node_seed = rng.getrandbits(62)
    return NodeMaterial(
        index=key_seed,
        node_id=puzzle.node_id,
        id_keypair=id_keypair,
        pseudonym_keypair=pseudonym_keypair,
        puzzle=puzzle,
        node_seed=node_seed,
    )


class PopulationFactory:
    """A resumable stream of node identities off one seeded RNG.

    ``take(count)`` yields a bootstrap population and later
    ``next_material()`` calls yield the dynamic joiners. A
    ``RacSystem`` mints from its own factory, and nothing else draws
    from it, so the k-th ``RacSystem.join()`` is the k-th
    ``next_material()`` after bootstrap whatever the run did in
    between — which is what lets a live cluster admit the joiners its
    sim twin admits.
    """

    def __init__(self, config: RacConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = random.Random(seed)
        self._next_index = 1

    def next_material(self) -> NodeMaterial:
        material = generate_node_material(self._rng, self._next_index, self.config)
        self._next_index += 1
        return material

    def take(self, count: int) -> "List[NodeMaterial]":
        return [self.next_material() for _ in range(count)]

    def fork(self) -> random.Random:
        """An RNG that continues from the cursor's current state; what
        it draws never moves the identity stream."""
        rng = random.Random()
        rng.setstate(self._rng.getstate())
        return rng


def build_population(config: RacConfig, count: int, seed: int = 0) -> "List[NodeMaterial]":
    """The first ``count`` nodes a ``RacSystem(config, seed)`` would create.

    Matches :meth:`repro.core.system.RacSystem.bootstrap` draw for draw,
    so a live cluster seeded the same way hosts the same population.
    """
    return PopulationFactory(config, seed).take(count)
