"""Property-based tests for scenario and fault-plan serialisation.

``Scenario.from_dict(s.to_dict()) == s`` with a stable fingerprint over
arbitrary scenarios — including ones that carry a hand-built
:class:`FaultPlan`, whose own ``to_dict`` / ``from_dict`` ride on the
canonical form ``fingerprint()`` hashes — and the round trip survives
JSON, which is how a scenario travels in a manifest.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.chaos.plan import CANNED_PLANS, FaultPlan
from repro.core.config import TIMER_REGIMES
from repro.scenario import Scenario
from repro.topo.model import PRESET_NAMES, preset

NODES = 8
times = st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda t: round(t, 3))
spans = st.floats(min_value=0.01, max_value=5.0, allow_nan=False).map(lambda t: round(t, 3))
indices = st.integers(min_value=0, max_value=NODES - 1)


@st.composite
def fault_plans(draw):
    plan = FaultPlan(seed=draw(st.integers(0, 2**31)), horizon=10.0)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("crash", "restart", "partition", "loss", "degrade", "reorder", "dir")))
        at = draw(times)
        if kind == "crash":
            plan.crash(draw(indices), at)
        elif kind == "restart":
            plan.crash_restart(draw(indices), at, draw(spans))
        elif kind == "partition":
            cut = draw(st.integers(1, NODES - 1))
            order = draw(st.permutations(range(NODES)))
            plan.partition(order[:cut], order[cut:], at, draw(spans))
        elif kind == "loss":
            plan.loss(draw(st.floats(0.0, 0.9)), at, draw(spans), node=draw(st.none() | indices))
        elif kind == "degrade":
            plan.degrade(draw(indices), draw(st.floats(0.1, 1.0)), at, draw(spans))
        elif kind == "reorder":
            plan.reorder(draw(indices), draw(st.integers(2, 9)), at, draw(spans))
        else:
            plan.directory_outage(at, draw(spans))
    return plan


@st.composite
def scenarios(draw):
    topology = draw(st.none() | st.sampled_from(PRESET_NAMES) | st.just(preset("wan-king", NODES, seed=3)))
    plans = st.none() | st.sampled_from(CANNED_PLANS) | fault_plans()
    if topology is not None:
        plans = plans | st.just("diurnal")
    members = draw(st.lists(indices, min_size=1, max_size=3, unique=True))
    coalition = draw(
        st.none()
        | st.fixed_dictionaries(
            {"mode": st.sampled_from(("shield", "stagger")), "members": st.just(members)},
            optional={"rotation_period": st.floats(0.5, 5.0)},
        )
    )
    taken = set(members) if coalition else set()
    deviants = draw(
        st.dictionaries(
            indices.filter(lambda i: i not in taken),
            st.sampled_from(("silent-relay", "false-accuser", "honest")),
            max_size=2,
        )
    )
    return Scenario(
        nodes=NODES,
        horizon=10.0,
        seed=draw(st.integers(0, 2**31)),
        regime=draw(st.sampled_from(sorted(TIMER_REGIMES))),
        config=draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "relay_timeout": st.floats(0.5, 60.0),
                    "num_rings": st.integers(1, 7),
                    "key_backend": st.sampled_from(("sim", "dh")),
                    "send_interval": st.none() | st.floats(0.01, 1.0),
                },
            )
        ),
        topology=topology,
        topology_seed=draw(st.integers(0, 9)),
        plan=draw(plans),
        deviants=deviants,
        coalition=coalition,
        traffic=draw(st.sampled_from(("ring", "round-robin", "intra-group"))),
        messages=draw(st.integers(0, 4)),
        traffic_interval=draw(st.floats(0.01, 2.0)),
        diurnal=draw(st.booleans()),
        tag=draw(st.text(alphabet="abcxyz-", min_size=1, max_size=8)),
        heal_bound=draw(st.floats(0.5, 10.0)),
        detection_bound=draw(st.none() | st.floats(0.5, 10.0)),
        enforce_contract=draw(st.booleans()),
    )


class TestFaultPlanRoundTrip:
    @given(fault_plans())
    @settings(max_examples=40, deadline=None)
    def test_dict_form_carries_exactly_what_the_fingerprint_hashes(self, plan):
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert clone.fingerprint() == plan.fingerprint()
        assert clone.schedule() == plan.schedule()


class TestScenarioRoundTrip:
    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_from_dict_inverts_to_dict(self, scenario):
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario
        assert clone.fingerprint() == scenario.fingerprint()

    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_the_round_trip_survives_json(self, scenario):
        clone = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert clone == scenario
        assert clone.fingerprint() == scenario.fingerprint()
        assert clone.fault_plan() == scenario.fault_plan()

    @given(scenarios(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_the_fingerprint_tells_scenarios_apart(self, scenario, seed):
        import dataclasses

        other = dataclasses.replace(scenario, seed=seed)
        assert (other.fingerprint() == scenario.fingerprint()) == (other == scenario)
