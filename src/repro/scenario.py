"""One scenario, one runner, one judge.

The paper makes one accountability claim (§IV-C/§V-B: no honest node is
evicted, every detectable deviant is evicted within a bound). Chaos
soaks, topology runs, campaign cells, the sim/live parity pair, the
sharded simulator's monolithic oracle and the ``protocol`` workload all
judge it with the same pipeline:

    population → planted behaviours → fault plan → traffic → run → judge

This module is that pipeline, once. A frozen, serialisable
:class:`Scenario` says *what* runs; :func:`prepare` lowers it onto a
:class:`~repro.core.system.RacSystem` (a :class:`SimRun`: advance it in
chunks, snapshot it between them, tap it before it starts);
:func:`run_scenario` plays it on the simulator or over real TCP (asyncio
tasks in one process, or one worker process per node); either way the
result is one :class:`Outcome`. Both live modes hand the judge one
:class:`~repro.live.cluster.LiveReport`, built from the nodes' own
reports; they differ only in how they obtain it. Workloads, CLI and
experiment scripts are adapters over :meth:`Scenario.from_params`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .chaos.invariants import InvariantChecker, InvariantReport
from .chaos.plan import CANNED_GEOMETRY, CANNED_PLANS, FaultPlan, canned_plan
from .core.config import (
    MISBEHAVIOUR_TIMERS,
    WAN_ARQ,
    RacConfig,
    check_timers,
    scale_timers,
    timer_regime,
)
from .core.identity import build_population
from .core.system import RacSystem
from .freeride.coalition import COALITION_CLASSES, build_coalition
from .freeride.registry import BEHAVIORS, UnknownBehaviorError
from .topo.model import TopologyModel, preset
from .topo.traces import diurnal_churn_plan, publish_times

__all__ = [
    "DEFAULT_DEVIANT_INDEX",
    "HARNESSES",
    "UnsupportedOnSubstrate",
    "Scenario",
    "Eviction",
    "Outcome",
    "SimRun",
    "plan_coalition_indices",
    "plant_behaviors",
    "ring_sends",
    "traffic_sends",
    "play_traffic",
    "prepare",
    "run_scenario",
    "run_params",
]

#: Creation index of a planted misbehaver. Chosen away from index 1
#: (the smoke plan's crash-restart victim) so a run's fault timeline
#: and its deviant are distinct nodes under the canned plans.
DEFAULT_DEVIANT_INDEX = 3

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(RacConfig))

#: What each harness fixes about its scenarios, in the vocabulary of
#: :meth:`Scenario.from_params`; a cell's own params win. A regime per
#: substrate lets one command line run "the same" scenario on a
#: simulated clock (detection-sized timers) and a wall clock (jitter-proof).
HARNESSES: "Dict[str, Dict[str, Any]]" = {
    "protocol": dict(nodes=8, horizon=4.0, regime="tight", traffic="ring", messages=2, tag="sweep"),
    "live": dict(
        substrate="live", nodes=8, horizon=5.0, regime="wall", traffic="ring", messages=2, tag="live"
    ),
    "chaos": dict(
        nodes=8, horizon=24.0, regime={"sim": "heal", "live": "wall-heal"}, plan="smoke", tag="chaos"
    ),
    "topo": dict(
        nodes=10,
        horizon=12.0,
        regime={"sim": "detect", "live": "wall-heal"},
        topology="lan",
        heal_bound=5.0,
        tag="topo",
        **WAN_ARQ,
    ),
    "campaign": dict(nodes=10, horizon=16.0, regime="detect", tag="campaign"),
}

#: Spellings the sweep grids and Make targets already use.
_PARAM_ALIASES = {"duration": "horizon", "strategy": "deviant", "loss": "link_loss_rate"}

#: Cell parameters that are scenario fields under the same name.
_PARAM_FIELDS = {
    "nodes": int,
    "horizon": float,
    "topology": str,
    "topology_seed": int,
    "plan": str,
    "traffic": str,
    "messages": int,
    "traffic_interval": float,
    "tag": str,
    "heal_bound": float,
    "detection_bound": float,
    "enforce_contract": lambda flag: bool(int(flag)),
}


class UnsupportedOnSubstrate(ValueError):
    """The scenario sets a field the substrate cannot honour — raised
    rather than silently running a different scenario (a deviant run on
    sim judged against an honest one on live compares nothing)."""

    def __init__(self, field_name: str, substrate: str, why: str) -> None:
        self.field, self.substrate = field_name, substrate
        super().__init__(
            f"scenario field {field_name!r} is not supported on the {substrate} substrate: {why}"
        )


# ---------------------------------------------------------------------------
# the scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """Everything that determines one judged run, JSON-serialisable.

    ``config`` holds :class:`RacConfig` overrides on top of the
    ``regime`` row of :data:`repro.core.config.TIMER_REGIMES`.
    ``topology`` is a preset name (sampled at ``topology_seed``) or a
    :class:`TopologyModel`. ``plan`` is a canned name
    (:data:`repro.chaos.plan.CANNED_PLANS`), ``"diurnal"`` (the
    topology's region-phased churn trace) or a :class:`FaultPlan`.
    ``deviants`` maps 0-based creation indices — the indices a
    :class:`FaultPlan` uses — to behaviour-registry names; ``coalition``
    plants one coordinated set instead: ``{"mode": shield|frame|stagger,
    "members": [indices], "victims": [indices], "rotation_period": s}``.

    ``traffic`` is the application load, every payload prefixed ``tag``:

    * ``ring`` — every node queues ``messages`` payloads to its
      creation-order successor before the run starts;
    * ``intra-group`` — the same ring inside each group (what keeps a
      sharded run equivalent to the monolithic one: cross-group payload
      traffic would couple shards mid-epoch);
    * ``round-robin`` — from t=0.2 s, node ``k % n`` sends to node
      ``(k+1) % n`` every ``traffic_interval`` seconds: the liveness
      probe (a silent system can neither prove nor violate "delivery
      resumes") that also keeps relay paths and ring forwarding fed.

    ``detection_bound`` defaults to the horizon.
    ``enforce_contract=False`` turns :meth:`check_contract` off on every
    substrate, so the run keeps timers below any floor of
    :func:`repro.core.config.timer_floors` — how an experiment measures
    where honest evictions actually begin.
    """

    nodes: int
    horizon: float
    seed: int = 0
    regime: str = "tight"
    config: "Mapping[str, Any]" = field(default_factory=dict)
    topology: "Union[None, str, TopologyModel]" = None
    topology_seed: int = 0
    plan: "Union[None, str, FaultPlan]" = None
    deviants: "Mapping[int, str]" = field(default_factory=dict)
    coalition: "Optional[Mapping[str, Any]]" = None
    traffic: str = "round-robin"
    messages: int = 1
    traffic_interval: float = 0.25
    tag: str = "scenario"
    heal_bound: float = 4.0
    detection_bound: "Optional[float]" = None
    enforce_contract: bool = True

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("a scenario needs at least two nodes")
        if self.horizon <= 0:
            raise ValueError("scenario horizon must be positive")
        _check_config_keys(self.config)
        self.configuration()  # regime name and config values
        if isinstance(self.topology, str):
            preset(self.topology, 1)  # unknown names raise, listing the presets
        plans = CANNED_PLANS + ("diurnal",)
        if isinstance(self.plan, str) and self.plan not in plans:
            raise ValueError(f"unknown fault plan {self.plan!r}; known plans: " + ", ".join(plans))
        if self.plan == "diurnal" and self.topology is None:
            raise ValueError("the diurnal churn trace needs a topology (its region tags)")
        if isinstance(self.plan, FaultPlan):
            self.plan.validate(self.nodes)
        if self.traffic not in ("ring", "round-robin", "intra-group"):
            raise ValueError(
                f"unknown traffic kind {self.traffic!r}; known: ring, round-robin, intra-group"
            )
        if self.messages < 0 or self.traffic_interval <= 0:
            raise ValueError("messages per node must be >= 0 and the traffic interval positive")
        if self.heal_bound <= 0:
            raise ValueError("heal bound must be positive")
        if self.detection_bound is not None and self.detection_bound <= 0:
            raise ValueError("detection bound must be positive")

        deviants = {int(index): str(name) for index, name in self.deviants.items()}
        for index, name in deviants.items():
            if name not in BEHAVIORS:
                raise UnknownBehaviorError(name)
            self._check_index("deviant", index)
        object.__setattr__(self, "deviants", deviants)
        object.__setattr__(self, "config", dict(self.config))
        if self.coalition is not None:
            coalition = dict(self.coalition)
            for key in ("members", "victims"):
                coalition[key] = tuple(sorted(int(i) for i in coalition.get(key, ())))
                for index in coalition[key]:
                    self._check_index("coalition", index)
            # Mode, roster and victims are the coordinator's to judge.
            build_coalition(coalition.get("mode"), coalition["members"], victims=coalition["victims"])
            overlap = set(coalition["members"]) & set(deviants)
            if overlap:
                raise ValueError(
                    f"indices {sorted(overlap)} are both coalition members and unilateral deviants"
                )
            object.__setattr__(self, "coalition", coalition)

    def _check_index(self, what: str, index: int) -> None:
        if not 0 <= index < self.nodes:
            raise ValueError(
                f"{what} index {index} outside population 0..{self.nodes - 1} "
                "(0-based creation order)"
            )

    def check_contract(self, interval: float) -> None:
        """Refuse the run if a timer is below its lan, topology or window
        floor (:func:`repro.core.config.check_timers`) at send interval
        ``interval`` — or check nothing when ``enforce_contract`` is off.
        Every run entry calls it once, before the first event."""
        if self.enforce_contract:
            config, plan = self.configuration(), self.fault_plan()
            check_timers(config, interval, topology=self.shaping(), plan=plan)

    # -- lowering --------------------------------------------------------------
    def configuration(self) -> RacConfig:
        geometry = CANNED_GEOMETRY.get(self.plan, {}) if isinstance(self.plan, str) else {}
        return timer_regime(self.regime, **{**geometry, **self.config})

    @property
    def population(self) -> int:
        """Every node the run ever hosts: the bootstrap plus the plan's
        joiners, who take the creation indices after it."""
        return self.nodes + self.fault_plan().joins

    def model(self) -> "Optional[TopologyModel]":
        if isinstance(self.topology, str):
            return preset(self.topology, self.nodes, seed=self.topology_seed)
        return self.topology

    def shaping(self) -> "Optional[TopologyModel]":
        """The model the network must apply. The lan preset is
        byte-identical to the bare star (`repro topo verify` holds it to
        that), so nothing is asked to look up an all-zero matrix per
        packet."""
        return None if self.topology == "lan" else self.model()

    def fault_plan(self) -> FaultPlan:
        """The scenario's timeline (empty for a clean run)."""
        if isinstance(self.plan, FaultPlan):
            return self.plan
        if self.plan == "diurnal":
            return diurnal_churn_plan(self.model(), self.nodes, self.horizon, seed=self.seed)
        return canned_plan(self.plan or "none", self.nodes, self.horizon, self.seed)

    def planted(self) -> "Dict[int, str]":
        """Creation index → registry name of every planted misbehaver
        (``honest`` entries plant nobody)."""
        planted = {i: name for i, name in self.deviants.items() if BEHAVIORS[name].kind != "honest"}
        if self.coalition is not None:
            name = COALITION_CLASSES[self.coalition["mode"]].name
            planted.update({index: name for index in self.coalition["members"]})
        return planted

    def check_substrate(self, substrate: str, processes: bool = False) -> None:
        """Raise :class:`UnsupportedOnSubstrate` for a field the
        substrate would otherwise silently drop. ``processes`` asks for
        the live substrate with one worker process per node, which has
        no fault shim or supervisor to play a plan or shape frames."""
        if substrate not in ("sim", "live"):
            raise ValueError(f"unknown substrate {substrate!r}; known: sim, live")
        if substrate == "live" and self.planted():
            raise UnsupportedOnSubstrate(
                "coalition" if self.coalition else "deviants",
                "live",
                "a LiveCluster cannot plant behaviours",
            )
        if processes and substrate != "live":
            raise ValueError("worker processes host the live substrate only")
        if processes and (self.fault_plan().events or self.shaping() is not None):
            field_name = "plan" if self.fault_plan().events else "topology"
            why = "the fault shim and the supervisor run in-process, not in worker processes"
            raise UnsupportedOnSubstrate(field_name, "live", why)

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> "Dict[str, Any]":
        body = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        body["config"] = dict(self.config)
        body["deviants"] = {str(index): name for index, name in self.deviants.items()}
        body["coalition"] = self.coalition and dict(self.coalition)
        if isinstance(self.topology, TopologyModel):
            body["topology"] = self.topology.to_dict()
        if isinstance(self.plan, FaultPlan):
            body["plan"] = self.plan.to_dict()
        return body

    @classmethod
    def from_dict(cls, body: "Mapping[str, Any]") -> "Scenario":
        body = dict(body)
        if isinstance(body.get("topology"), Mapping):
            body["topology"] = TopologyModel.from_dict(body["topology"])
        if isinstance(body.get("plan"), Mapping):
            body["plan"] = FaultPlan.from_dict(body["plan"])
        return cls(**body)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form: equal scenarios, equal
        fingerprints, across processes and hash seeds."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_params(cls, params: "Mapping[str, Any]", seed: int, harness: str) -> "Scenario":
        """One sweep cell / command line as a scenario of ``harness``.

        Reads the scenario fields of :data:`_PARAM_FIELDS` by name
        (``duration`` is ``horizon``), plus ``substrate`` (picks the
        harness's regime), ``churn`` (1: the diurnal trace, under
        heal-scale timers), ``deviant`` (``strategy``, planted at
        :data:`DEFAULT_DEVIANT_INDEX`), ``coalition_fraction``,
        ``timer_scale`` (misbehaviour timers × factor),
        ``shuffle_rounds`` (derives ``blacklist_period`` so that many
        shuffle rounds fit the horizon; an explicit period wins) and
        ``loss`` (``link_loss_rate``). Every other key must name a
        :class:`RacConfig` field — an unknown one is a ``TypeError``
        listing the fields, never a silently ignored override.
        """
        p = dict(HARNESSES[harness])
        p.update({_PARAM_ALIASES.get(key, key): value for key, value in params.items()})
        substrate, regime = str(p.pop("substrate", "sim")), p.pop("regime")
        if isinstance(regime, dict):
            regime = regime[substrate]
        fields = {  # a field given as None keeps its default
            name: cast(value)
            for name, cast in _PARAM_FIELDS.items()
            if (value := p.pop(name, None)) is not None
        }
        nodes, horizon = fields["nodes"], fields["horizon"]
        if int(p.pop("churn", 0)):
            fields["plan"] = "diurnal"
            regime = "heal" if regime == "detect" else regime

        name = str(p.pop("deviant", "honest"))
        index = DEFAULT_DEVIANT_INDEX % nodes
        fraction = float(p.pop("coalition_fraction", 0.0))
        spec = BEHAVIORS.get(name)
        if spec is None:
            raise UnknownBehaviorError(name)
        if spec.coalition_mode is not None:
            size = max(1, round(fraction * nodes)) if fraction else 1
            members = plan_coalition_indices(nodes, size)
            victims: "Tuple[int, ...]" = ()
            if spec.coalition_mode == "frame":
                # The framed victim: an honest node opposite the
                # deviant slot in creation order, walked past members.
                victim = (index + nodes // 2) % nodes
                while victim in members:
                    victim = (victim + 1) % nodes
                victims = (victim,)
            fields["coalition"] = dict(mode=spec.coalition_mode, members=members, victims=victims)
        elif fraction:
            raise ValueError(
                f"coalition_fraction set but strategy {name!r} is not a coordinated behaviour"
            )
        elif spec.kind != "honest":
            fields["deviants"] = {index: name}

        scale = float(p.pop("timer_scale", 1.0))
        rounds = p.pop("shuffle_rounds", None)
        config = p  # whatever is left must be RacConfig fields
        _check_config_keys(config)
        if rounds is not None and "blacklist_period" not in config:
            config["blacklist_period"] = horizon / (int(rounds) + 2)
        if scale != 1.0:
            scaled = scale_timers(timer_regime(regime, **config), scale)
            config.update({timer: getattr(scaled, timer) for timer in MISBEHAVIOUR_TIMERS})
        return cls(seed=seed, regime=regime, config=config, **fields)


def _check_config_keys(config: "Mapping[str, Any]") -> None:
    unknown = sorted(set(config) - _CONFIG_FIELDS)
    if unknown:
        raise TypeError(
            "unknown RacConfig field(s) " + ", ".join(unknown) + "; RacConfig has: "
            + ", ".join(sorted(_CONFIG_FIELDS))
        )


# ---------------------------------------------------------------------------
# behaviours
# ---------------------------------------------------------------------------
def plan_coalition_indices(nodes: int, size: int) -> "Tuple[int, ...]":
    """Creation indices for a planted coalition of ``size`` members.

    Members are spread evenly around the creation order starting from
    :data:`DEFAULT_DEVIANT_INDEX` — a coalition of one lands exactly on
    the single-deviant slot, and larger coalitions occupy distinct ring
    positions (rather than a contiguous run) so their relay exposure
    matches what random placement would give.
    """
    if size < 1:
        raise ValueError("a coalition needs at least one member")
    if size >= nodes:
        raise ValueError(
            f"coalition of {size} cannot fit a population of {nodes} with any honest nodes left"
        )
    step = max(1, nodes // size)
    chosen: "List[int]" = []
    index = DEFAULT_DEVIANT_INDEX % nodes
    for _ in range(size):
        while index % nodes in chosen:
            index += 1
        chosen.append(index % nodes)
        index += step
    return tuple(chosen)


def plant_behaviors(scenario: Scenario, config: RacConfig, materials=None) -> "Dict[int, Any]":
    """Instantiate the scenario's misbehavers: creation index → behaviour.

    Node ids depend only on ``(config, seed)``, so ``build_population``
    names a targeted behaviour's victim (the honest node opposite it in
    creation order) and a coalition's roster without instantiating a
    node; ``materials`` passes a population the caller already drew. A
    coalition is built whole: every process constructs the full-roster
    coordinator and keeps the members it hosts. Its decisions are pure
    functions of (roster, victims, rotation period, sim time), so
    replicas in different shard bundles agree without communicating.
    """

    def node_id(index: int) -> int:
        nonlocal materials
        if materials is None:
            materials = build_population(config, scenario.nodes, scenario.seed)
        return materials[index].node_id

    behaviors: "Dict[int, Any]" = {}
    for index, name in sorted(scenario.deviants.items()):
        spec = BEHAVIORS[name]
        if spec.kind == "honest":
            continue
        victim = node_id((index + scenario.nodes // 2) % scenario.nodes) if spec.needs_victim else None
        behaviors[index] = spec.build(seed=scenario.seed, victim=victim)
    if scenario.coalition is not None:
        coalition = scenario.coalition
        members = build_coalition(
            coalition["mode"],
            [node_id(i) for i in coalition["members"]],
            victims=[node_id(i) for i in coalition["victims"]],
            rotation_period=float(coalition.get("rotation_period") or config.blacklist_period),
        )
        behaviors.update({index: members[node_id(index)] for index in coalition["members"]})
    return behaviors


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------
def ring_sends(nodes: int, messages: int, tag: str, seed: int) -> "List[Tuple[int, int, bytes]]":
    """(src index, dst index, payload): each node's ``messages`` to its
    creation-order successor."""
    return [
        (index, (index + 1) % nodes, f"{tag}/{seed}/{index}/{m}".encode())
        for index in range(nodes)
        for m in range(messages)
    ]


def traffic_sends(
    scenario: Scenario, node_ids: "Sequence[int]", directory
) -> "List[Tuple[Optional[float], int, int, bytes]]":
    """The scenario's application sends as (at, src index, dst index,
    payload); ``at`` is None for a send queued before the run starts.
    Round-robin traffic covers the whole population, joiners included:
    the runner skips a send while either end is not in the run."""
    n, tag, seed = scenario.nodes, scenario.tag, scenario.seed
    if scenario.traffic == "round-robin":
        n = scenario.population
        times = publish_times(scenario.horizon, scenario.traffic_interval)
        return [
            (at, k % n, (k + 1) % n, f"{tag}/{seed}/{k}".encode()) for k, at in enumerate(times)
        ]
    if scenario.traffic == "ring":
        return [(None, *send) for send in ring_sends(n, scenario.messages, tag, seed)]
    by_gid: "Dict[int, List[int]]" = {}  # each group's members, in creation order
    for index, node_id in enumerate(node_ids[:n]):
        by_gid.setdefault(directory.group_of_node(node_id).gid, []).append(index)
    return [
        (None, src, members[(i + 1) % len(members)], f"{tag}/{seed}/{gid}/{i}/{m}".encode())
        for gid, members in sorted(by_gid.items())
        if len(members) >= 2
        for i, src in enumerate(members)
        for m in range(scenario.messages)
    ]


def _pump(system: RacSystem, sent: "List[int]", src: int, dst: int, payload: bytes) -> None:
    """One application send, skipped when either end has not joined
    yet, has left, or is evicted or crashed for good. Module-level with
    bound args (no closures) so a prepared run stays snapshot-compatible."""
    for node_id in (src, dst):
        node = system.nodes.get(node_id)
        if node is None or not node.active:
            return
    if system.send(src, dst, payload):
        sent.append(src)


# ---------------------------------------------------------------------------
# the outcome
# ---------------------------------------------------------------------------
class Eviction(NamedTuple):
    at: float
    by: int
    accused: int
    kind: str
    gid: "Optional[int]"


@dataclass
class Outcome:
    """Everything one run produced, on either substrate.

    ``deliveries`` are ``(at, node id, payload)``; ``sent`` is the true
    sender of every accepted send, in order (an attribution attack's
    ground truth). On live, ``evictions`` hold the earliest record any
    replica kept per accused. Latency and throughput are measured on the
    simulator only: loopback TCP jitter would drown any comparison. ``scores`` is
    what a harness measured on top, merged into :meth:`metrics`.
    """

    scenario: Scenario
    substrate: str
    node_ids: "Tuple[int, ...]"
    deviant_ids: "Tuple[int, ...]"
    deliveries: "List[Tuple[float, int, bytes]]"
    evictions: "List[Eviction]"
    counters: "Dict[str, int]"
    report: InvariantReport
    end: float
    latency_mean_s: float = 0.0
    latency_p95_s: float = 0.0
    throughput_bps: float = 0.0
    sent: "List[int]" = field(default_factory=list)
    notes: "List[str]" = field(default_factory=list)
    log: "List[str]" = field(default_factory=list)
    errors: "List[str]" = field(default_factory=list)
    scores: "Dict[str, float]" = field(default_factory=dict)
    #: Live: each running node's :func:`~repro.groups.partition.directory_digest`.
    directory_digests: "Dict[int, str]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def _violations(self, invariant: str) -> int:
        return sum(1 for v in self.report.violations if v.invariant == invariant)

    @property
    def honest_evictions(self) -> int:
        return self._violations("safety-eviction")

    @property
    def missed_detections(self) -> int:
        return self._violations("missed-detection")

    @property
    def accusations(self) -> int:
        return sum(v for name, v in self.counters.items() if name.startswith("accusation_"))

    @property
    def deviants_evicted(self) -> int:
        return sum(1 for e in self.evictions if e.accused in self.deviant_ids)

    @property
    def detected(self) -> bool:
        """Every planted misbehaver is out."""
        return bool(self.deviant_ids) and self.deviants_evicted == len(self.deviant_ids)

    @property
    def detection_time_s(self) -> "Optional[float]":
        """When the *last* planted misbehaver fell."""
        if not self.detected:
            return None
        return max(e.at for e in self.evictions if e.accused in self.deviant_ids)

    def delivered_multiset(self) -> "List[bytes]":
        """All delivered payloads, sorted — the cross-substrate comparand."""
        return sorted(payload for _at, _node, payload in self.deliveries)

    def metrics(self) -> "Dict[str, float]":
        """The flat name → number dict the result store records."""
        detection = self.detection_time_s
        return {
            "sim_time_s": self.end,
            "deliveries": float(len(self.deliveries)),
            "accusations": float(self.accusations),
            "evictions": float(len(self.evictions)),
            "violations": float(len(self.report.violations)),
            "honest_evictions": float(self.honest_evictions),
            "blacklist_violations": float(self._violations("safety-blacklist")),
            "liveness_violations": float(self._violations("liveness")),
            "missed_detections": float(self.missed_detections),
            "detected": 1.0 if self.detected else 0.0,
            "detection_time_s": -1.0 if detection is None else detection,
            "latency_mean_s": self.latency_mean_s,
            "latency_p95_s": self.latency_p95_s,
            "throughput_bps": self.throughput_bps,
            **self.scores,
        }

    def render(self) -> str:
        s = self.scenario
        model = s.model()
        head = f"{s.tag} run [{self.substrate}]: {s.nodes} nodes, {s.horizon:g}s, seed {s.seed}"
        if model is not None:
            head += f", topology {model.name} ({model.fingerprint()[:16]})"
        plan = s.fault_plan()
        if plan.events:
            head += f", plan {plan.fingerprint()[:16]}"
        verdicts = (
            f" (honest {self.honest_evictions}, missed {self.missed_detections})"
            if self.evictions or self.deviant_ids
            else ""
        )
        lines = [
            head,
            f"  deliveries  : {len(self.deliveries)}",
            f"  accusations : {self.accusations}",
            f"  evictions   : {len(self.evictions)}{verdicts}",
        ]
        if model is not None and self.substrate == "sim":
            lines += [
                f"  latency     : mean {self.latency_mean_s * 1e3:.2f} ms, "
                f"p95 {self.latency_p95_s * 1e3:.2f} ms",
                f"  throughput  : {self.throughput_bps:,.0f} b/s",
            ]
        if self.detection_time_s is not None:
            lines.append(f"  detection   : every planted deviant evicted by t={self.detection_time_s:.2f}s")
        for name in (
            "group_splits",
            "group_dissolves",
            "chaos_frames_dropped",
            "chaos_frames_blackholed",
            "chaos_frames_delayed",
            "chaos_frames_reordered",
            "net_packets_dropped",
            "live_frames_sent",
            "live_bytes_sent",
            "live_frames_rejected",
            "live_link_resets",
            "live_connect_retries",
            "live_reconnect_failures",
            "live_frames_dropped_backlog",
        ):
            if self.counters.get(name):
                lines.append(f"  {name:<27}: {self.counters[name]}")
        sections = {
            f"callback errors ({len(self.errors)})": self.errors[:5],
            "supervisor": self.log,
            "compile notes": self.notes,
        }
        for title, entries in sections.items():
            if entries:
                lines.append(f"  {title}:")
                lines.extend(f"    {entry}" for entry in entries)
        lines.append("  " + self.report.render().replace("\n", "\n  "))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the sim runner
# ---------------------------------------------------------------------------
def _checker(scenario: Scenario, node_ids: "Sequence[int]", plan: FaultPlan) -> InvariantChecker:
    """The judge, armed with who is planted and what the plan excuses."""
    planted = scenario.planted()
    checker = InvariantChecker(
        node_ids,
        deviants=[node_ids[i] for i in planted],
        heal_bound=scenario.heal_bound,
        must_detect=[node_ids[i] for i, name in planted.items() if BEHAVIORS[name].detectable],
        detection_bound=scenario.detection_bound or scenario.horizon,
    )
    checker.note_plan(plan, node_ids)
    return checker


def _judged(
    scenario: Scenario, substrate: str, node_ids, checker: InvariantChecker, deliveries,
    evictions, blacklists, end: float, **measured
) -> Outcome:
    """Feed what the run recorded to the checker; the verdict and the
    record together are the outcome."""
    checker.finish(end)
    for delivery in deliveries:
        checker.record_delivery(*delivery)
    for e in evictions:
        checker.record_eviction(e.at, e.by, e.accused, e.kind)
    return Outcome(
        scenario=scenario,
        substrate=substrate,
        node_ids=tuple(node_ids),
        deviant_ids=tuple(node_ids[i] for i in sorted(scenario.planted())),
        deliveries=deliveries,
        evictions=evictions,
        report=checker.check(blacklists),
        end=end,
        **measured,
    )


@dataclass
class SimRun:
    """A scenario lowered onto a :class:`RacSystem`, not yet judged:
    plain data plus the system, so ``(run, progress)`` snapshots through
    :mod:`repro.simnet.snapshot` like a bare system."""

    scenario: Scenario
    system: RacSystem
    #: The whole population, joiners included, in creation order.
    node_ids: "List[int]"
    plan: FaultPlan
    notes: "List[str]"
    sent: "List[int]"
    #: The directory's event tallies when bootstrap ended.
    bootstrapped: "Dict[str, int]"

    def run_to(self, t: float) -> None:
        """Advance the simulation to absolute time ``t``."""
        self.system.sim.run(until=t)

    def close(self) -> None:
        """End the run's life once it is judged (:meth:`RacSystem.close`)."""
        self.system.close()

    def outcome(self) -> Outcome:
        """Judge everything the run has recorded so far."""
        system, nodes = self.system, self.system.nodes
        checker = _checker(self.scenario, self.node_ids, self.plan)
        checker.check_directory(system.now, system.directory)
        counts = system.directory.event_counts
        return _judged(
            self.scenario,
            "sim",
            self.node_ids,
            checker,
            deliveries=[
                (at, node_id, payload)
                for node_id in self.node_ids
                if node_id in nodes
                for at, payload in zip(nodes[node_id].delivered_at, nodes[node_id].delivered)
            ],
            evictions=[
                Eviction(info["at"], info["by"], accused, info["kind"], info["gid"])
                for accused, info in system.evicted.items()
            ],
            blacklists={node.node_id: node.blacklisted() for node in nodes.values() if node.active},
            end=system.now,
            counters={
                **system.stats_report(),
                **_churn_counters({k: n - self.bootstrapped.get(k, 0) for k, n in counts.items()}),
            },
            latency_mean_s=system.latency_meter.mean(),
            latency_p95_s=system.latency_meter.percentile(95),
            throughput_bps=system.global_meter.throughput_bps(end=system.now),
            sent=list(self.sent),
            notes=list(self.notes),
        )


def prepare(scenario: Scenario) -> SimRun:
    """Lower ``scenario`` onto the simulator at t=0: bootstrap with the
    behaviours planted, the fault plan compiled, the traffic queued or
    scheduled — in that order, so every event keeps its ``(time, seq)``."""
    config = scenario.configuration()
    model = scenario.shaping()
    plan = scenario.fault_plan()
    system = RacSystem(config, seed=scenario.seed, topology=model)
    node_ids = system.bootstrap(scenario.nodes, behaviors=plant_behaviors(scenario, config))
    bootstrapped = dict(system.directory.event_counts)
    scenario.check_contract(system.send_interval_for(node_ids[0]))
    node_ids += _joiner_ids(scenario, config)
    notes = plan.compile_sim(system, node_ids)

    sent: "List[int]" = []
    for at, src, dst, payload in traffic_sends(scenario, node_ids, system.directory):
        send = (system, sent, node_ids[src], node_ids[dst], payload)
        if at is None:
            _pump(*send)
        else:
            system.sim.schedule_at(at, _pump, *send)
    return SimRun(scenario, system, node_ids, plan, notes, sent, bootstrapped)


def _joiner_ids(scenario: Scenario, config: RacConfig) -> "List[int]":
    """The identities the plan's joins mint, in join order: the
    population's creation indices after the bootstrap."""
    if scenario.population == scenario.nodes:
        return []
    joiners = build_population(config, scenario.population, scenario.seed)[scenario.nodes :]
    return [material.node_id for material in joiners]


def _churn_counters(*histories: "Mapping[str, int]") -> "Dict[str, int]":
    """Group splits and dissolves since bootstrap, as counters (absent
    when there were none). Across live replicas, the longest history."""
    counts = {kind: max((h.get(kind, 0) for h in histories), default=0) for kind in ("split", "dissolve")}
    return {f"group_{kind}s": n for kind, n in counts.items() if n}


# ---------------------------------------------------------------------------
# the live runner
# ---------------------------------------------------------------------------
async def play_traffic(sends, now, send) -> None:
    """Offer each ``(at, src, dst, payload)`` of :func:`traffic_sends` to
    ``send(src, dst, payload)`` once the ``now`` clock reaches ``at``
    (None: at once)."""
    for at, src, dst, payload in sends:
        if at is not None:
            await asyncio.sleep(max(0.0, at - now()))
        send(src, dst, payload)


def _judged_live(
    scenario: Scenario, node_ids, checker: InvariantChecker, report, started: float,
    end: float, **measured
) -> Outcome:
    """Judge a live run from its :class:`~repro.live.cluster.LiveReport`;
    ``started`` is the loop time of the run's t=0. A verdict counts from
    the first replica that reached it; the blacklists, directories and
    digests are the still-running replicas', and active ones must agree."""
    running = [r for r in report.reports if r["running"]]
    for r in running:
        checker.record_directory_check(end, r["directory_error"])
    digests = {r["node_id"]: r["digest"] for r in running if r["active"]}
    if len(set(digests.values())) > 1:
        checker.record_directory_check(end, f"replicas hold {len(set(digests.values()))} directories: {digests}")
    counters = report.counters()
    counters.update(_churn_counters(*(r["reconfigurations"] for r in report.reports)))
    return _judged(
        scenario, "live", node_ids, checker, report.deliveries(started),
        [Eviction(*e) for e in report.evictions(started)],
        {r["node_id"]: set(r["blacklist"]) for r in running}, end, counters=counters,
        errors=report.errors,
        directory_digests=digests,
        **measured,
    )


async def _run_live(scenario: Scenario, port_base: "Optional[int]") -> Outcome:
    """The scenario over real TCP, every node an asyncio task. The fault
    shim and the crash-restart supervisor are installed only when there
    is a plan to play or a topology to shape frames with."""
    from .chaos.supervisor import ChaosSupervisor
    from .live.cluster import LiveCluster

    config, model, plan = scenario.configuration(), scenario.shaping(), scenario.fault_plan()
    loop = asyncio.get_running_loop()
    cluster = LiveCluster(scenario.nodes, config=config, seed=scenario.seed, port_base=port_base)
    node_ids = [m.node_id for m in cluster.materials] + _joiner_ids(scenario, config)
    checker = _checker(scenario, node_ids, plan)

    await cluster.start()
    started = loop.time()  # plan t=0 is cluster activation

    supervisor = None
    if plan.events or model is not None:
        supervisor = ChaosSupervisor(cluster, plan, checker=checker, topology=model)
        supervisor.start()

    sent: "List[int]" = []

    def in_run(index: int) -> bool:
        """Joined, and not crashed, departed or out of its own replica."""
        node = cluster.nodes[index] if index < len(cluster.nodes) else None
        return node is not None and not node.killed and node.rac.active

    def send(src: int, dst: int, payload: bytes) -> None:
        if in_run(src) and in_run(dst) and cluster.queue_message(src, dst, payload):
            sent.append(node_ids[src])

    sends = traffic_sends(scenario, node_ids, cluster.nodes[0].env.directory)
    pump_task = loop.create_task(play_traffic(sends, lambda: loop.time() - started, send))
    try:
        await cluster.run_for(scenario.horizon)
    finally:
        pump_task.cancel()
        [pumped] = await asyncio.gather(pump_task, return_exceptions=True)
        if supervisor is not None:
            await supervisor.stop()
    end = loop.time() - started
    report = await cluster.shutdown(end)
    if isinstance(pumped, Exception):
        report.run_errors.append(f"traffic: {pumped!r}")
    return _judged_live(
        scenario, node_ids, checker, report, started, end,
        sent=sent, log=list(supervisor.log) if supervisor is not None else [],
    )


async def _run_processes(scenario: Scenario, port_base: "Optional[int]") -> Outcome:
    """The scenario over real TCP, every node in its own worker process
    (:mod:`repro.live.worker`); t=0 is the first worker's activation."""
    from .live.cluster import run_workers

    config = scenario.configuration()
    node_ids = [m.node_id for m in build_population(config, scenario.nodes, scenario.seed)]
    checker = _checker(scenario, node_ids, scenario.fault_plan())
    report = await run_workers(json.dumps(scenario.to_dict()), scenario.nodes, port_base)
    started = min((r["epoch"] for r in report.reports), default=0.0)
    return _judged_live(
        scenario, node_ids, checker, report, started, scenario.horizon,
        sent=[r["node_id"] for r in report.reports for _ in range(r["sent"])],
    )


def run_scenario(
    scenario: Scenario,
    substrate: str = "sim",
    *,
    port_base: "Optional[int]" = None,
    processes: bool = False,
) -> Outcome:
    """Play ``scenario`` to its horizon on ``substrate`` and judge it.
    Live only: ``port_base`` binds node *i* to port ``port_base + i``;
    ``processes`` hosts every node in its own worker process (no fault
    plan or topology: :meth:`Scenario.check_substrate`)."""
    scenario.check_substrate(substrate, processes)
    if substrate == "live":
        scenario.check_contract(scenario.configuration().derived_send_interval(scenario.nodes))
        runner = _run_processes if processes else _run_live
        return asyncio.run(runner(scenario, port_base))
    run = prepare(scenario)
    try:
        run.run_to(scenario.horizon)
        return run.outcome()
    finally:
        run.close()


def run_params(params: "Mapping[str, Any]", seed: int, harness: str) -> Outcome:
    """:meth:`Scenario.from_params` run on the cell's own ``substrate`` —
    the one the harness picked its timer regime for."""
    substrate = str({**HARNESSES[harness], **params}.get("substrate", "sim"))
    return run_scenario(Scenario.from_params(params, seed, harness), substrate)
