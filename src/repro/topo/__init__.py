"""Pluggable WAN topology layer.

One :class:`~repro.topo.model.TopologyModel` — a fingerprinted
per-pair propagation-latency matrix plus per-node access classes —
drives both substrates: the deterministic simulator's star realizes it
through its fluid links, and the live chaos proxy applies the same
arithmetic to real TCP frames. :mod:`repro.topo.traces` compiles
trace-driven workloads (diurnal churn, sinusoidal publish rates) onto
the fault-plan machinery; :mod:`repro.topo.run` (imported directly,
not re-exported here — it pulls in the system) is the lan-equivalence
gate. :func:`repro.scenario.run_scenario` runs and judges a model on
either substrate.
"""

from .model import (
    PRESET_NAMES,
    PRESETS,
    AccessClass,
    TopologyModel,
    frame_shaping_delay,
    hetero_access,
    lan,
    planet_diurnal,
    preset,
    wan_king,
)
from .traces import diurnal_churn_plan, publish_times

__all__ = [
    "PRESET_NAMES",
    "PRESETS",
    "AccessClass",
    "TopologyModel",
    "frame_shaping_delay",
    "hetero_access",
    "lan",
    "planet_diurnal",
    "preset",
    "wan_king",
    "diurnal_churn_plan",
    "publish_times",
]
