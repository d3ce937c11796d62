"""Verdicts that do not depend on tie order.

The engine breaks a tie between calendar entries due at one bit-identical
instant by ``seq``, the order they were scheduled in, so a seeded run
replays one fixed interleaving. Nothing in the protocol may depend on
that choice: two events at one instant are simultaneous, and any order
of them is a run the network could have produced. Each characterisation
cell of ``test_scenario_equivalence`` is therefore run again on a
simulator that dispatches same-instant entries in a seeded random order,
and its delivered multiset and eviction set must equal the unpermuted
run's. Counters, instants and digests may move; the verdict may not.
"""

import random
from heapq import heappop, heappush

import pytest

import repro.core.system
from repro.simnet.engine import Simulator
from tests import scenario_cells
from tests.integration.test_scenario_equivalence import CELLS

PERMUTATION_SEEDS = (1, 2, 3)


class _TiePermutingSimulator(Simulator):
    """Before each dispatch, the entries due at the head instant trade
    their ``seq`` numbers by a seeded shuffle. Entries at other instants
    keep their keys, so only the order within one instant changes, and
    an entry scheduled at the current instant still cannot fire before
    the event that scheduled it."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.tie_rng = random.Random(seed)
        self.shuffles = 0

    def step(self, until=None):
        queue = self._queue
        # a heap's second-smallest entry is a child of the root
        if (len(queue) > 1 and queue[1][0] == queue[0][0]) or (
            len(queue) > 2 and queue[2][0] == queue[0][0]
        ):
            instant = queue[0][0]
            tied = []
            while queue and queue[0][0] == instant:
                tied.append(heappop(queue))
            seqs = [entry[1] for entry in tied]
            self.tie_rng.shuffle(seqs)
            for entry, seq in zip(tied, seqs):
                entry[1] = seq
                heappush(queue, entry)
            self.shuffles += 1
        return super().step(until)


def _verdict(outcome):
    """What tie order may not move: who got what, and who was evicted."""
    return outcome.delivered_multiset(), sorted({(e.accused, e.kind) for e in outcome.evictions})


@pytest.mark.parametrize("seed", PERMUTATION_SEEDS)
@pytest.mark.parametrize("name", sorted(CELLS))
def test_the_verdict_does_not_depend_on_tie_order(name, seed, monkeypatch):
    run = CELLS[name][0]
    reference = _verdict(run())  # the pinned run, shared with the equivalence test
    simulators = []

    def permuting():
        simulators.append(_TiePermutingSimulator(seed))
        return simulators[-1]

    monkeypatch.setattr(scenario_cells, "_OUTCOMES", {})
    monkeypatch.setattr(repro.core.system, "Simulator", permuting)
    permuted = _verdict(run())
    assert simulators and sum(sim.shuffles for sim in simulators) > 0, "no tie was permuted"
    assert permuted == reference
