"""Serializable, fingerprinted WAN topology models.

The paper evaluates RAC on an ideal LAN — every node on a 1 Gb/s link
to one non-blocking router, propagation essentially free (Section
VI-A). The question here is what happens to the accountability story
when that assumption goes away: per-pair wide-area latency, access
links of different (and asymmetric) speeds, and day/night population
rhythms are exactly the conditions under which misbehaviour timers can
start convicting honest-but-distant nodes.

A :class:`TopologyModel` is plain data — a per-pair one-way
propagation-latency matrix plus a per-slot :class:`AccessClass` with
optional asymmetric up/down bandwidth — consumed identically by both
substrates:

* the simulator's :class:`repro.simnet.network.StarNetwork` sizes each
  node's uplink/downlink ``Link`` from the model and adds the pair
  delay when scheduling router→downlink propagation;
* the live :class:`repro.chaos.proxy.ChaosProxy` delays real frames by
  :func:`frame_shaping_delay` — the same pair delay plus the
  serialization *surplus* of the model's access links over the nominal
  LAN rate the TCP loopback already provides.

One model object, two substrates, one sha256 :meth:`fingerprint` over
the canonical JSON body, so a sim result and a live result can prove
they ran the same network.

``up_bps``/``down_bps`` of ``None`` mean *inherit the configured link
bandwidth* — the ``lan`` preset uses that plus an all-zero latency
matrix, which makes it byte-identical to running with no topology at
all (``x + 0.0 == x`` and the links come out at the configured rate);
the determinism pins in tests/integration/test_determinism.py hold
under it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AccessClass",
    "TopologyModel",
    "PRESETS",
    "PRESET_NAMES",
    "preset",
    "lan",
    "wan_king",
    "hetero_access",
    "planet_diurnal",
    "from_matrix",
    "frame_shaping_delay",
]


@dataclass(frozen=True)
class AccessClass:
    """One slot's access link: named, possibly asymmetric, possibly
    inherited.

    ``up_bps``/``down_bps`` are bits per second; ``None`` means "use
    whatever the deployment configured" (``RacConfig.link_bandwidth_bps``),
    which is how the ``lan`` preset stays byte-identical to no topology.
    ``region`` tags the slot for trace-driven workloads (diurnal churn
    phases by region — :mod:`repro.topo.traces`).
    """

    name: str
    up_bps: "Optional[float]" = None
    down_bps: "Optional[float]" = None
    region: int = 0

    def __post_init__(self) -> None:
        if self.up_bps is not None and self.up_bps <= 0:
            raise ValueError("up_bps must be positive (or None to inherit)")
        if self.down_bps is not None and self.down_bps <= 0:
            raise ValueError("down_bps must be positive (or None to inherit)")


@dataclass(frozen=True)
class TopologyModel:
    """A network shape: per-pair one-way delay + per-slot access class.

    ``latency[i][j]`` is the *extra* one-way propagation delay (seconds)
    from slot ``i`` to slot ``j``, added on top of the substrate's base
    propagation; the diagonal is zero. ``access[i]`` is slot ``i``'s
    :class:`AccessClass`. Populations larger than ``n`` wrap around
    (:meth:`slot` is creation-index mod ``n``), so one canned model
    serves any system size.

    Frozen, tuple-backed, and picklable: a :class:`RacSystem` snapshot
    mid-run carries its topology along untouched.
    """

    name: str
    latency: "Tuple[Tuple[float, ...], ...]"
    access: "Tuple[AccessClass, ...]"
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.latency)
        if n == 0:
            raise ValueError("a topology needs at least one slot")
        if len(self.access) != n:
            raise ValueError("need exactly one access class per slot")
        for i, row in enumerate(self.latency):
            if len(row) != n:
                raise ValueError("the latency matrix must be square")
            for j, delay in enumerate(row):
                if delay < 0:
                    raise ValueError(f"negative latency at ({i}, {j})")
            if row[i] != 0.0:
                raise ValueError(f"the latency diagonal must be zero (slot {i})")

    # -- lookups ---------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.latency)

    def slot(self, index: int) -> int:
        """Model slot of the ``index``-th created node (wraps mod n)."""
        return index % self.n

    def pair_delay(self, i: int, j: int) -> float:
        """Extra one-way propagation delay from slot i to slot j."""
        return self.latency[i % self.n][j % self.n]

    def up_bps(self, i: int, default: float) -> float:
        bps = self.access[i % self.n].up_bps
        return default if bps is None else bps

    def down_bps(self, i: int, default: float) -> float:
        bps = self.access[i % self.n].down_bps
        return default if bps is None else bps

    def region(self, i: int) -> int:
        return self.access[i % self.n].region

    def regions(self) -> "List[int]":
        return sorted({cls.region for cls in self.access})

    # -- worst-case figures for the timer contract ----------------------------
    def worst_rtt(self) -> float:
        """Max over pairs of the two one-way propagation delays."""
        worst = 0.0
        for i in range(self.n):
            for j in range(self.n):
                if i != j:
                    worst = max(worst, self.latency[i][j] + self.latency[j][i])
        return worst

    def worst_one_way_serialization(self, size_bytes: int, default_bps: float) -> float:
        """Worst uplink + worst downlink serialization of one message."""
        bits = size_bytes * 8
        slowest_up = min(self.up_bps(i, default_bps) for i in range(self.n))
        slowest_down = min(self.down_bps(i, default_bps) for i in range(self.n))
        return bits / slowest_up + bits / slowest_down

    # -- identity --------------------------------------------------------------
    def to_dict(self) -> "Dict":
        return {
            "name": self.name,
            "seed": self.seed,
            "latency": [list(row) for row in self.latency],
            "access": [
                {
                    "name": cls.name,
                    "up_bps": cls.up_bps,
                    "down_bps": cls.down_bps,
                    "region": cls.region,
                }
                for cls in self.access
            ],
        }

    @classmethod
    def from_dict(cls, body: "Dict") -> "TopologyModel":
        return cls(
            name=str(body["name"]),
            seed=int(body.get("seed", 0)),
            latency=tuple(tuple(float(v) for v in row) for row in body["latency"]),
            access=tuple(
                AccessClass(
                    name=str(a["name"]),
                    up_bps=a.get("up_bps"),
                    down_bps=a.get("down_bps"),
                    region=int(a.get("region", 0)),
                )
                for a in body["access"]
            ),
        )

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON body. Both substrates report
        it, so "same network" is a string comparison."""
        body = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "TopologyModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- presentation ----------------------------------------------------------
    def describe(self) -> str:
        delays = [
            self.latency[i][j] for i in range(self.n) for j in range(self.n) if i != j
        ]
        classes = sorted({cls.name for cls in self.access})
        mean_ms = (sum(delays) / len(delays) * 1e3) if delays else 0.0
        return (
            f"{self.name}: {self.n} slots, pair delay mean {mean_ms:.1f} ms "
            f"(worst RTT {self.worst_rtt() * 1e3:.1f} ms), access classes "
            f"{', '.join(classes)}, {len(self.regions())} region(s), "
            f"fingerprint {self.fingerprint()[:16]}"
        )

    def render_matrix(self) -> str:
        lines = ["one-way pair delay (ms):"]
        header = "      " + " ".join(f"{j:>6d}" for j in range(self.n))
        lines.append(header)
        for i in range(self.n):
            row = " ".join(f"{self.latency[i][j] * 1e3:6.1f}" for j in range(self.n))
            lines.append(f"  {i:>3d} {row}")
        lines.append("access:")
        for i, cls in enumerate(self.access):
            up = "inherit" if cls.up_bps is None else f"{cls.up_bps / 1e6:g} Mb/s"
            down = "inherit" if cls.down_bps is None else f"{cls.down_bps / 1e6:g} Mb/s"
            lines.append(f"  {i:>3d} {cls.name:<8} up {up:>10}  down {down:>10}  region {cls.region}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the shaping arithmetic both substrates share
# ---------------------------------------------------------------------------


def frame_shaping_delay(
    model: TopologyModel, i: int, j: int, size_bytes: int, nominal_bps: float
) -> float:
    """One frame's extra one-way delay versus an ideal ``nominal_bps`` LAN.

    The simulator realizes the same total organically — its per-node
    ``Link`` objects serialize at the model's access rates and the
    router adds ``pair_delay`` — so on an otherwise idle 2-node
    exchange::

        t_sim(model) - t_sim(lan) == frame_shaping_delay(model, i, j, size, bps)

    which is exactly what the live :class:`~repro.chaos.proxy.ChaosProxy`
    adds on top of the loopback TCP path. The equivalence is pinned by
    tests/unit/test_topo.py.
    """
    bits = size_bytes * 8
    surplus = (
        bits / model.up_bps(i, nominal_bps)
        + bits / model.down_bps(j, nominal_bps)
        - 2 * bits / nominal_bps
    )
    return model.pair_delay(i, j) + max(0.0, surplus)


# ---------------------------------------------------------------------------
# canned presets
# ---------------------------------------------------------------------------

def lan(n: int = 16, seed: int = 0) -> TopologyModel:
    """The paper's network: zero extra delay, every link at the
    configured rate. Byte-identical to running without a topology."""
    if n < 1:
        raise ValueError("need at least one slot")
    zeros = tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
    access = tuple(AccessClass("lan") for _ in range(n))
    return TopologyModel(name="lan", latency=zeros, access=access, seed=seed)


def _symmetric_matrix(n: int, fill) -> "Tuple[Tuple[float, ...], ...]":
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            delay = fill(i, j)
            rows[i][j] = rows[j][i] = delay
    return tuple(tuple(row) for row in rows)


def wan_king(n: int = 16, seed: int = 0) -> TopologyModel:
    """King-style synthetic WAN: seeded coordinates on a 40 ms plane.

    The King technique measures pairwise end-host latency through DNS
    recursion; its published medians put one-way delays in the tens of
    milliseconds. We reproduce the *shape* synthetically — each slot
    gets a seeded position on a 40 ms × 40 ms plane, pair delay is the
    euclidean distance plus a 2 ms access floor — so matrices are
    deterministic in (n, seed) and need no dataset file. Explicit
    measured matrices load through :func:`from_matrix` instead.
    """
    rng = random.Random((seed << 8) ^ 0x71B0)
    points = [(rng.uniform(0.0, 0.040), rng.uniform(0.0, 0.040)) for _ in range(n)]

    def fill(i: int, j: int) -> float:
        dx = points[i][0] - points[j][0]
        dy = points[i][1] - points[j][1]
        return round(0.002 + (dx * dx + dy * dy) ** 0.5, 6)

    access = tuple(AccessClass("wan") for _ in range(n))
    return TopologyModel(
        name="wan-king", latency=_symmetric_matrix(n, fill), access=access, seed=seed
    )


#: The heterogeneous access tiers: (name, up_bps, down_bps). Asymmetry
#: mirrors consumer links — downstream is the fat direction.
_ACCESS_TIERS = (
    ("fiber", 1e9, 1e9),
    ("cable", 20e6, 200e6),
    ("dsl", 10e6, 50e6),
)


def hetero_access(n: int = 16, seed: int = 0) -> TopologyModel:
    """Metro-area delays with heterogeneous, asymmetric access links.

    Pair delays stay small (2–10 ms) so this preset isolates the
    *bandwidth* axis: a seeded shuffle deals fiber/cable/dsl tiers
    round-robin across the slots, and uplinks are 10–50× slower than
    downlinks on the consumer tiers.
    """
    rng = random.Random((seed << 8) ^ 0xACCE)
    matrix = _symmetric_matrix(n, lambda i, j: round(rng.uniform(0.002, 0.010), 6))
    tiers = [_ACCESS_TIERS[k % len(_ACCESS_TIERS)] for k in range(n)]
    rng.shuffle(tiers)
    access = tuple(AccessClass(name, up, down) for name, up, down in tiers)
    return TopologyModel(
        name="hetero-access", latency=matrix, access=access, seed=seed
    )


#: (region_a, region_b) → base one-way delay. Three continents, ordered
#: roughly Americas / Europe / Asia.
_REGION_BASE_DELAY = {
    (0, 0): 0.008,
    (1, 1): 0.008,
    (2, 2): 0.008,
    (0, 1): 0.045,
    (1, 2): 0.055,
    (0, 2): 0.090,
}


def planet_diurnal(n: int = 16, seed: int = 0) -> TopologyModel:
    """Three continental regions with realistic inter-region delay.

    Slots are dealt round-robin across the regions; intra-region pairs
    sit at ~8 ms one way, cross-region pairs at 45–98 ms depending on
    the pair. The ``region`` tags are what
    :func:`repro.topo.traces.diurnal_churn_plan` phases its day/night
    churn by — this preset is the trace-driven workloads' home.
    """
    rng = random.Random((seed << 8) ^ 0xD1A7)
    regions = [k % 3 for k in range(n)]

    def fill(i: int, j: int) -> float:
        a, b = sorted((regions[i], regions[j]))
        base = _REGION_BASE_DELAY[(a, b)]
        return round(base + rng.uniform(0.0, 0.008), 6)

    access = tuple(AccessClass("metro", region=regions[k]) for k in range(n))
    return TopologyModel(
        name="planet-diurnal", latency=_symmetric_matrix(n, fill), access=access, seed=seed
    )


def from_matrix(
    latency: "Sequence[Sequence[float]]",
    access: "Optional[Sequence[AccessClass]]" = None,
    *,
    name: str = "explicit",
    seed: int = 0,
) -> TopologyModel:
    """Wrap an explicit (measured) one-way latency matrix, seconds."""
    n = len(latency)
    classes = (
        tuple(access)
        if access is not None
        else tuple(AccessClass("explicit") for _ in range(n))
    )
    return TopologyModel(
        name=name,
        latency=tuple(tuple(float(v) for v in row) for row in latency),
        access=classes,
        seed=seed,
    )


#: Name → (builder, the line `repro topo list` prints), in listing order.
PRESETS = {
    "lan": (lan, "uniform star, zero extra delay (byte-identical to no topology)"),
    "wan-king": (wan_king, "king-style synthetic WAN: seeded points on a 40ms plane"),
    "hetero-access": (hetero_access, "fiber/cable/dsl access tiers, asymmetric up/down"),
    "planet-diurnal": (planet_diurnal, "three regions, inter-region delay up to ~100ms one-way"),
}

#: Names `preset()` accepts.
PRESET_NAMES = tuple(PRESETS)


def preset(name: str, n: int = 16, seed: int = 0) -> TopologyModel:
    """A canned model by name; unknown names list the registry."""
    if name not in PRESETS:
        raise ValueError(
            f"unknown topology preset {name!r}; known presets: "
            + ", ".join(PRESET_NAMES)
        )
    return PRESETS[name][0](n, seed)
