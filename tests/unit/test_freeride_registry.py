"""The behaviour registry: stable names and expected opponent verdicts.

Two halves:

* shape — every deviation class the freeride package ships is in the
  registry under its own ``name`` attribute, the factories build, and
  lookups fail with the typed, menu-carrying error;
* verdicts — a minimal seeded campaign cell planted with each
  ``adversary.py`` opponent produces the registry's promised outcome
  (detectable opponents convicted, the lone false accuser bounded but
  *not* convicted, and never an honest eviction), both on a clean
  network and under 5% link loss.
"""

import inspect

import pytest

from repro.core.behavior import HonestBehavior
from repro.freeride import adversary, selective, strategies
from repro.freeride.registry import (
    BEHAVIORS,
    UnknownBehaviorError,
    behavior_names,
    make_behavior,
)


def _shipped_behavior_classes():
    classes = []
    for module in (strategies, adversary, selective):
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, HonestBehavior)
                and obj is not HonestBehavior
                and obj.__module__ == module.__name__
            ):
                classes.append(obj)
    return classes


class TestRegistryShape:
    def test_keys_equal_class_names(self):
        for name, spec in BEHAVIORS.items():
            assert name == spec.name

    def test_every_shipped_class_is_registered(self):
        shipped = {cls.name for cls in _shipped_behavior_classes()}
        assert shipped  # the scan itself must find the deviations
        missing = shipped - set(BEHAVIORS)
        assert not missing, f"unregistered deviations: {sorted(missing)}"

    def test_honest_is_registered(self):
        assert BEHAVIORS["honest"].kind == "honest"
        assert not BEHAVIORS["honest"].detectable

    def test_names_are_sorted(self):
        names = behavior_names()
        assert names == sorted(names)
        assert set(names) == set(BEHAVIORS)

    def test_factories_build(self):
        for name, spec in BEHAVIORS.items():
            built = make_behavior(name, seed=3, victim=0xBEEF)
            assert isinstance(built, HonestBehavior), name
            assert spec.kind in ("honest", "freerider", "opponent")

    def test_unknown_name_is_typed_and_lists_the_menu(self):
        with pytest.raises(UnknownBehaviorError) as err:
            make_behavior("sleepy-relay")
        message = str(err.value)
        assert "sleepy-relay" in message
        for known in ("forward-dropper", "false-accuser"):
            assert known in message
        assert isinstance(err.value, KeyError)  # still catches as a lookup

    def test_false_accuser_requires_victim(self):
        assert BEHAVIORS["false-accuser"].needs_victim
        with pytest.raises(ValueError, match="victim"):
            make_behavior("false-accuser")

    def test_adversary_opponents_carry_expected_promises(self):
        assert BEHAVIORS["path-drop-opponent"].detectable
        assert BEHAVIORS["replay-attacker"].detectable
        assert BEHAVIORS["flooder"].detectable
        assert not BEHAVIORS["false-accuser"].detectable
        for name in ("path-drop-opponent", "replay-attacker", "flooder", "false-accuser"):
            assert BEHAVIORS[name].kind == "opponent"


@pytest.mark.parametrize("loss", [0.0, 0.05], ids=["clean", "lossy5pct"])
@pytest.mark.parametrize(
    "opponent", ["path-drop-opponent", "replay-attacker", "flooder", "false-accuser"]
)
class TestOpponentVerdicts:
    """adversary.py opponents through one minimal seeded campaign cell."""

    def _cell(self, opponent, loss):
        from tests.scenario_cells import campaign_cell

        return campaign_cell(
            {
                "strategy": opponent,
                "plan": "none",
                "loss": loss,
                "nodes": 10,
                "horizon": 12.0,
            },
            0,
        )

    def test_verdict_matches_registry_promise(self, opponent, loss):
        outcome = self._cell(opponent, loss)
        spec = BEHAVIORS[opponent]
        assert outcome.detected == spec.detectable, (
            f"{opponent} at {loss:.0%} loss: expected "
            f"detected={spec.detectable}, got {outcome.detected}"
        )
        # Two-sided soundness regardless of the opponent: nobody honest
        # convicted, no required conviction missed.
        assert outcome.honest_evictions == 0
        assert outcome.missed_detections == 0
