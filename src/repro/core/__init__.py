"""The RAC protocol itself (the paper's primary contribution).

* :mod:`repro.core.config` — deployment parameters (L, R, G, timers);
* :mod:`repro.core.environment` — the NodeEnvironment substrate protocol;
* :mod:`repro.core.identity` — deterministic node identity material;
* :mod:`repro.core.onion` — layered encryption, padding, peeling;
* :mod:`repro.core.messages` — the three wire messages, the join record and domain ids;
* :mod:`repro.core.monitor` — the three misbehaviour checks;
* :mod:`repro.core.blacklist` — blacklists and eviction evidence;
* :mod:`repro.core.behavior` — the honest behaviour hook set;
* :mod:`repro.core.node` — the per-node state machine;
* :mod:`repro.core.system` — the orchestrator / public API.
"""

from .behavior import HonestBehavior
from .blacklist import Blacklist, BlacklistEntry, EvictionTracker
from .config import RacConfig, check_timers
from .environment import NodeEnvironment
from .identity import NodeMaterial, build_population, generate_node_material
from .messages import (
    Accusation,
    Broadcast,
    DomainId,
    EvictionNotice,
    JoinRequest,
    channel_domain,
    group_domain,
)
from .monitor import PredecessorMonitor, RateMonitor, RateVerdict, RelayMonitor, RelaySuspicion
from .node import PendingSend, RacNode
from .onion import BuiltOnion, PeelResult, build_noise, build_onion, onion_capacity, peel, unwrap_wire, wrap_wire
from .system import RacSystem

__all__ = [
    "HonestBehavior",
    "NodeEnvironment",
    "NodeMaterial",
    "build_population",
    "generate_node_material",
    "check_timers",
    "Blacklist",
    "BlacklistEntry",
    "EvictionTracker",
    "RacConfig",
    "Accusation",
    "Broadcast",
    "DomainId",
    "EvictionNotice",
    "JoinRequest",
    "channel_domain",
    "group_domain",
    "PredecessorMonitor",
    "RateMonitor",
    "RateVerdict",
    "RelayMonitor",
    "RelaySuspicion",
    "PendingSend",
    "RacNode",
    "BuiltOnion",
    "PeelResult",
    "build_noise",
    "build_onion",
    "onion_capacity",
    "peel",
    "unwrap_wire",
    "wrap_wire",
    "RacSystem",
]
