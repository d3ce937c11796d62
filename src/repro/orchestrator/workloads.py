"""Sweepable experiment workloads.

A *workload* is a function ``fn(params, seed, ctx) -> metrics`` taking
one grid cell's parameter dict and seed, plus a :class:`WorkerContext`
that provides checkpointing and (test-only) fault injection. Metrics
must be a flat ``name -> number`` dict; the reserved key
``"sim_time_s"`` is lifted into the result record's own field.

Workload functions run inside pool worker *processes*; they must be
importable module-level callables (the pool ships them by name, never
by pickling closures) and deterministic in ``(params, seed)``: a
crashed worker is retried and a checkpointed run is resumed, and both
recovery paths assume re-execution converges on the same numbers.

The ``protocol`` workload is the flagship: a packet-level
:class:`~repro.core.system.RacSystem` run that snapshots itself every
``ctx.checkpoint_interval`` sim-seconds via
:mod:`repro.simnet.snapshot`, so a SIGKILLed worker resumes mid-run
instead of starting over. The ``fig1_point`` / ``fig3_point`` /
``comparison_point`` workloads evaluate the analytic models one system
size at a time — the figure modules route their sweeps through the
same grid + store machinery as full campaigns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..simnet.snapshot import load_snapshot, save_snapshot

__all__ = [
    "WORKLOADS",
    "UnknownWorkloadError",
    "WorkerContext",
    "resolve_workload",
    "workload",
    "reset_worker_caches",
    "CRASH_EXIT_CODE",
]

#: Exit code of an *injected* worker crash (tests / `make sweep-smoke`);
#: distinguishable from ordinary failures in pool logs.
CRASH_EXIT_CODE = 73

WORKLOADS: "Dict[str, Callable[[Dict[str, Any], int, WorkerContext], Dict[str, float]]]" = {}


class UnknownWorkloadError(KeyError):
    """A sweep or campaign named a workload nobody registered.

    Subclasses :class:`KeyError` (the lookup that failed) but renders a
    usable message: the bad name plus every registered one, so a typo'd
    ``repro sweep run -e portocol`` tells you what it should have been.
    """

    def __init__(self, name: str) -> None:
        self.workload = name
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"unknown workload {self.workload!r}; registered workloads: "
            + ", ".join(sorted(WORKLOADS))
        )


def resolve_workload(name: str):
    """The registered workload function, or a typed, listing error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(name) from None


def workload(name: str):
    """Register a sweepable experiment under ``name``."""

    def register(fn):
        if name in WORKLOADS:
            raise ValueError(f"workload {name!r} is already registered")
        WORKLOADS[name] = fn
        return fn

    return register


def reset_worker_caches() -> None:
    """Reset per-process caches at a worker-run boundary.

    Sweep workers execute many runs back to back (and inherit a warm
    parent image under fork-start multiprocessing); clearing the crypto
    shared-base/derivation caches keeps each run deterministic in isolation and
    bounds worker memory across a long campaign.
    """
    from .. import crypto

    crypto.clear_process_caches()


@dataclass
class WorkerContext:
    """Checkpointing and fault-injection services for one cell attempt."""

    checkpoint_path: "Optional[str]" = None
    #: Sim-seconds between checkpoints; None/0 disables checkpointing.
    checkpoint_interval: "Optional[float]" = None
    attempt: int = 0
    #: Test-only chaos: the workload's ``maybe_crash()`` hard-exits the
    #: worker process once, exercising the retry/resume machinery.
    inject_crash: bool = False
    #: Run the byte-equality round-trip check on every checkpoint.
    verify_snapshots: bool = False
    checkpoints_written: int = field(default=0, init=False)

    def checkpoint(self, system: Any, progress: "Dict[str, Any]") -> None:
        """Persist ``(system, progress)`` atomically; a crash between
        two checkpoints costs at most one interval of re-simulation."""
        if self.checkpoint_path is None:
            return
        save_snapshot((system, progress), self.checkpoint_path, verify=self.verify_snapshots)
        self.checkpoints_written += 1

    def load_checkpoint(self) -> "Optional[Tuple[Any, Dict[str, Any]]]":
        if self.checkpoint_path is None or not os.path.exists(self.checkpoint_path):
            return None
        return load_snapshot(self.checkpoint_path)

    def clear_checkpoint(self) -> None:
        if self.checkpoint_path is not None and os.path.exists(self.checkpoint_path):
            os.remove(self.checkpoint_path)

    def maybe_crash(self) -> None:
        """Die here if this attempt carries an injected crash."""
        if self.inject_crash:
            # A real SIGKILL victim gets no cleanup either; flush
            # nothing, skip atexit, vanish mid-run.
            os._exit(CRASH_EXIT_CODE)


# ---------------------------------------------------------------------------
# packet-level protocol run (checkpointable)
# ---------------------------------------------------------------------------

#: RacConfig overrides a ``protocol`` cell may carry.
_CONFIG_KEYS = (
    "num_relays",
    "num_rings",
    "message_size",
    "send_interval",
    "link_bandwidth_bps",
    "link_loss_rate",
    "relay_timeout",
    "predecessor_timeout",
    "rate_window",
    "blacklist_period",
    "key_backend",
    "propagation_jitter",
)


@workload("protocol")
def protocol_run(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """End-to-end RAC run: N nodes, ring traffic, full stats report.

    Parameters: ``nodes`` (population), ``duration`` (sim-seconds),
    ``messages`` (anonymous messages each node queues to its ring
    successor), plus any :data:`_CONFIG_KEYS` RacConfig override.

    The run advances in checkpoint-interval chunks; each chunk boundary
    snapshots ``(system, progress)``, so an interrupted attempt resumes
    exactly where the last snapshot stood — the chunk schedule is
    deterministic, which makes the resumed run replay the uninterrupted
    one byte for byte.
    """
    from ..core.config import RacConfig
    from ..core.system import RacSystem

    duration = float(params.get("duration", 4.0))
    resumed = ctx.load_checkpoint()
    if resumed is not None:
        system, progress = resumed
    else:
        overrides = {k: params[k] for k in _CONFIG_KEYS if k in params}
        config = RacConfig.small(**overrides)
        system = RacSystem(config, seed=seed)
        node_ids = system.bootstrap(int(params.get("nodes", 8)))
        per_node = int(params.get("messages", 2))
        for index, src in enumerate(node_ids):
            dst = node_ids[(index + 1) % len(node_ids)]
            for m in range(per_node):
                system.send(src, dst, f"sweep/{seed}/{index}/{m}".encode())
        progress = {"t_done": 0.0}

    first_chunk = True
    while progress["t_done"] < duration - 1e-12:
        chunk = duration - progress["t_done"]
        if ctx.checkpoint_interval:
            chunk = min(chunk, float(ctx.checkpoint_interval))
        system.run(chunk)
        progress["t_done"] += chunk
        if progress["t_done"] < duration - 1e-12:
            ctx.checkpoint(system, progress)
        if first_chunk:
            first_chunk = False
            ctx.maybe_crash()

    report = system.stats_report()
    deliveries = sum(len(node.delivered) for node in system.nodes.values())
    metrics: Dict[str, float] = {
        "sim_time_s": system.now,
        "deliveries": float(deliveries),
        "delivered_bytes": float(system.global_meter.total_bytes),
        "throughput_bps": system.global_meter.throughput_bps(end=system.now),
        "latency_mean_s": system.latency_meter.mean(),
        "evictions": float(len(system.evicted)),
        "events_processed": float(system.sim.events_processed),
        "net_packets_delivered": float(report["net_packets_delivered"]),
        "net_packets_dropped": float(report["net_packets_dropped"]),
        "transport_retransmits": float(report.get("transport_retransmits", 0)),
    }
    return metrics


# ---------------------------------------------------------------------------
# live runtime (real TCP sockets, wall clock)
# ---------------------------------------------------------------------------


@workload("live_point")
def live_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One live-cluster run: N asyncio-hosted nodes over localhost TCP.

    Parameters: ``nodes``, ``duration`` (*wall* seconds — live runs
    spend real time), ``messages``, plus any :data:`_CONFIG_KEYS`
    RacConfig override. Not checkpointable (a TCP cluster cannot be
    snapshotted mid-flight); a crashed attempt reruns from scratch,
    which the deterministic population makes safe.
    """
    from ..live.cluster import live_config, run_demo

    overrides = {k: params[k] for k in _CONFIG_KEYS if k in params}
    report = run_demo(
        int(params.get("nodes", 8)),
        float(params.get("duration", 5.0)),
        config=live_config(**overrides),
        seed=seed,
        messages=int(params.get("messages", 2)),
    )
    ctx.maybe_crash()
    totals = report.counters()
    return {
        "deliveries": float(report.deliveries),
        "accusations": float(report.accusations),
        "evictions": float(len(report.evicted)),
        "live_frames_sent": float(totals.get("live_frames_sent", 0)),
        "live_bytes_sent": float(totals.get("live_bytes_sent", 0)),
        "live_link_resets": float(totals.get("live_link_resets", 0)),
        "live_callback_errors": float(len(report.errors)),
    }


@workload("chaos_point")
def chaos_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One invariant-checked chaos run, sweepable over seeds and shapes.

    Parameters: ``substrate`` (``sim`` default, or ``live``), ``plan``
    (``smoke`` default, or ``storm``), ``nodes``, ``horizon`` (sim- or
    wall-seconds depending on substrate), ``heal_bound``, plus any
    :data:`_CONFIG_KEYS` RacConfig override. The violation count is a
    metric, not an exception: a soak campaign aggregates it to zero.
    """
    from ..chaos import (
        chaos_live_config,
        chaos_sim_config,
        run_chaos_live_blocking,
        run_chaos_sim,
        smoke_plan,
        storm_plan,
    )

    substrate = str(params.get("substrate", "sim"))
    nodes = int(params.get("nodes", 8))
    horizon = float(params.get("horizon", 24.0))
    heal_bound = float(params.get("heal_bound", 4.0))
    builder = smoke_plan if str(params.get("plan", "smoke")) == "smoke" else storm_plan
    plan = builder(nodes, horizon, seed=seed)
    overrides = {k: params[k] for k in _CONFIG_KEYS if k in params}
    if substrate == "sim":
        outcome = run_chaos_sim(
            plan,
            nodes=nodes,
            seed=seed,
            config=chaos_sim_config(**overrides),
            heal_bound=heal_bound,
        )
    else:
        outcome = run_chaos_live_blocking(
            plan,
            nodes=nodes,
            seed=seed,
            config=chaos_live_config(**overrides),
            heal_bound=heal_bound,
        )
    ctx.maybe_crash()
    return {
        "deliveries": float(outcome.deliveries),
        "accusations": float(outcome.accusations),
        "evictions": float(outcome.evictions),
        "violations": float(len(outcome.report.violations)),
        "heal_windows_checked": float(outcome.report.checks.get("heal_windows", 0)),
        "chaos_frames_dropped": float(outcome.counters.get("chaos_frames_dropped", 0)),
        "chaos_frames_blackholed": float(outcome.counters.get("chaos_frames_blackholed", 0)),
    }


@workload("shard_epoch")
def shard_epoch(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One (shard, epoch) step of a group-sharded run.

    Parameters: ``run_dir`` (holds the ``sharded.json`` manifest with
    the full :class:`~repro.simnet.shard.ScaleSpec`), ``shard``,
    ``epoch``. State lives in the shard's snapshot under the run dir;
    see :func:`repro.orchestrator.sharded.run_shard_epoch` for the
    idempotency contract that makes crash retries exactly-once.
    """
    from .sharded import run_shard_epoch

    return run_shard_epoch(params, seed, ctx)


@workload("scale_point")
def scale_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One sharded end-to-end run at population ``nodes`` (scaling curve).

    Parameters: ``nodes``, ``shards``, ``horizon``, ``epoch``,
    ``messages``, ``group_max``. Shards execute serially inside this
    cell (a pool worker must not spawn its own pool); the scratch run
    directory is private to the cell and torn down afterwards, so the
    metrics depend only on ``(params, seed)``.
    """
    import shutil
    import tempfile

    from ..simnet.shard import ScaleSpec
    from .sharded import run_sharded

    spec = ScaleSpec(
        nodes=int(params.get("nodes", 64)),
        num_shards=int(params.get("shards", 2)),
        seed=seed,
        horizon=float(params.get("horizon", 4.0)),
        epoch=float(params.get("epoch", 1.0)),
        messages=int(params.get("messages", 1)),
        group_max=int(params.get("group_max", 16)),
    )
    scratch = tempfile.mkdtemp(prefix="scale_point_")
    try:
        outcome = run_sharded(spec, scratch, serial=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ctx.maybe_crash()
    return {
        "sim_time_s": spec.horizon,
        "events_processed": float(outcome.events_processed),
        "deliveries": float(len(outcome.delivered)),
        "evictions": float(len(outcome.evicted)),
        "wall_seconds": float(outcome.wall_seconds),
        "events_per_second": float(outcome.events_per_second),
        "shards": float(spec.num_shards),
    }


@workload("pubsub_point")
def pubsub_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One anonymous pub/sub run on the sim twin, with membership churn.

    Parameters: ``nodes`` (bootstrap population), ``duration``
    (sim-seconds, split around the churn window), ``topics``,
    ``subscribers`` (how many nodes subscribe, round-robin over the
    topics), ``publishes`` (per half, round-robin over topics), ``joins``
    and ``leaves`` (mid-run churn driving live splits/dissolves), plus
    any :data:`_CONFIG_KEYS` RacConfig override and the group bounds
    ``group_min`` / ``group_max`` (the split/dissolve thresholds — the
    axis a membership-churn sweep actually cares about). Not
    checkpointable (cells are short); deterministic in ``(params, seed)``.
    """
    from ..core.config import RacConfig
    from ..pubsub.sim import SimPubSub

    config_keys = _CONFIG_KEYS + ("group_min", "group_max")
    overrides = {k: params[k] for k in config_keys if k in params}
    # A group must keep >= num_relays + 1 members to originate onions
    # at all, so the churn defaults keep every split/dissolve product
    # origination-capable (RacConfig.small's group_min=2 does not).
    overrides.setdefault("group_min", int(overrides.get("num_relays", 2)) + 1)
    overrides.setdefault("group_max", 2 * int(overrides["group_min"]))
    config = RacConfig.small(**overrides)
    duration = float(params.get("duration", 4.0))
    topics = max(1, int(params.get("topics", 2)))
    service = SimPubSub(config, seed=seed)
    node_ids = service.bootstrap(int(params.get("nodes", 8)))
    baseline = dict(service.reconfigurations())

    subscribers = min(int(params.get("subscribers", len(node_ids))), len(node_ids))
    for index in range(subscribers):
        service.subscribe(node_ids[index], f"t{index % topics}")

    def publish_round(tag: str) -> None:
        publishes = int(params.get("publishes", topics))
        for m in range(publishes):
            publisher = node_ids[(m + 1) % len(node_ids)]
            if publisher in service.excused():
                continue
            service.publish(publisher, f"t{m % topics}", f"pubsub/{seed}/{tag}/{m}".encode())

    publish_round("pre")
    service.run(duration / 2)

    for _ in range(int(params.get("joins", 1))):
        joined = service.join()
        service.subscribe(joined, f"t{joined % topics}")
    survivors = [n for n in node_ids if n not in service.excused()]
    for victim in survivors[-int(params.get("leaves", 1)) :][::-1]:
        if len(survivors) > 2:
            service.leave(victim)
            survivors.remove(victim)

    publish_round("post")
    service.run(duration / 2)
    # Drain window: fan-outs enlarged by the joins may still be in
    # flight; give them bounded extra sim-time before judging parity,
    # so `parity_missing` means *lost*, not *late*.
    drain = float(params.get("drain", duration))
    drained = 0.0
    while drained < drain and not service.parity().ok:
        service.run(duration / 4)
        drained += duration / 4
    ctx.maybe_crash()

    parity = service.parity()
    reconfigs = service.reconfigurations()
    return {
        "sim_time_s": service.system.now,
        "fanout_expected": float(parity.expected),
        "deliveries": float(parity.delivered),
        "parity_missing": float(len(parity.missing)),
        "splits": float(reconfigs.get("split", 0) - baseline.get("split", 0)),
        "dissolves": float(reconfigs.get("dissolve", 0) - baseline.get("dissolve", 0)),
        "evictions": float(len(service.system.evicted)),
        "publish_drops": float(service.system.stats.value("pubsub_publish_queue_dropped")),
    }


@workload("topo_point")
def topo_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One topology run on the sim substrate, sweepable per preset.

    Parameters: ``topology`` (preset name, ``lan`` default),
    ``topology_seed`` (preset sampler seed, fixed 0 default so one
    sweep compares one fingerprinted matrix), ``nodes``, ``horizon``,
    ``deviant`` (behaviour registry name or ``honest``),
    ``timer_scale`` (misbehaviour timers × factor),
    ``enforce_contract`` (0 bypasses the topology timer floor — the
    false-positive-onset probe), ``churn`` (1 compiles the model's
    diurnal churn trace), ``rate_schedule`` (``diurnal`` or absent).
    Deterministic in ``(params, seed)``; not checkpointable (cells are
    short), so a crashed attempt simply reruns.
    """
    from ..topo.model import preset
    from ..topo.run import run_topo_sim

    model = preset(
        str(params.get("topology", "lan")),
        int(params.get("nodes", 10)),
        seed=int(params.get("topology_seed", 0)),
    )
    outcome = run_topo_sim(
        model,
        nodes=int(params.get("nodes", 10)),
        horizon=float(params.get("horizon", 12.0)),
        seed=seed,
        deviant=str(params.get("deviant", "honest")),
        timer_scale=float(params.get("timer_scale", 1.0)),
        enforce_contract=bool(int(params.get("enforce_contract", 1))),
        churn=bool(int(params.get("churn", 0))),
        rate_schedule=params.get("rate_schedule"),
    )
    ctx.maybe_crash()
    return outcome.metrics()


@workload("campaign_point")
def campaign_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One adversarial-campaign cell: strategy × fault plan × loss point.

    Parameters: ``strategy`` (behaviour registry name), ``plan``
    (``none`` | ``smoke`` | ``storm``), ``loss`` (baseline link-loss
    rate — the fault-intensity axis), ``nodes``, ``horizon``,
    ``detection_bound``, ``heal_bound``, plus the RacConfig overrides
    :mod:`repro.campaign.scoring` accepts. Deterministic in
    ``(params, seed)`` like every workload; not checkpointable (cells
    are short), so a crashed attempt simply reruns.
    """
    from ..campaign.scoring import run_campaign_cell

    outcome = run_campaign_cell(params, seed)
    ctx.maybe_crash()
    return outcome.metrics()


# ---------------------------------------------------------------------------
# analytic model points (the figure sweeps)
# ---------------------------------------------------------------------------


@workload("fig1_point")
def fig1_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One Figure 1 x-point: Dissent v1/v2 throughput at N nodes."""
    from ..analysis.costs import optimal_server_count
    from ..analysis.throughput import GBPS, dissent_v1_throughput, dissent_v2_throughput

    n = int(params["nodes"])
    link_bps = float(params.get("link_bps", GBPS))
    return {
        "dissent_v1_bps": dissent_v1_throughput(n, link_bps),
        "dissent_v2_bps": dissent_v2_throughput(n, link_bps),
        "servers": float(optimal_server_count(n)),
    }


@workload("fig3_point")
def fig3_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One Figure 3 x-point: RAC and baseline throughput at N nodes."""
    from ..analysis.throughput import (
        GBPS,
        dissent_v1_throughput,
        dissent_v2_throughput,
        rac_nogroup_throughput,
        rac_throughput,
    )

    n = int(params["nodes"])
    link_bps = float(params.get("link_bps", GBPS))
    G = int(params.get("group_size", 1000))
    L = int(params.get("num_relays", 5))
    R = int(params.get("num_rings", 7))
    return {
        "rac_nogroup_bps": rac_nogroup_throughput(n, link_bps, L, R),
        "rac_grouped_bps": rac_throughput(n, link_bps, G, L, R),
        "dissent_v1_bps": dissent_v1_throughput(n, link_bps),
        "dissent_v2_bps": dissent_v2_throughput(n, link_bps),
    }


@workload("comparison_point")
def comparison_point(params: "Dict[str, Any]", seed: int, ctx: WorkerContext) -> "Dict[str, float]":
    """One Section III cost-model row: message copies at N nodes."""
    from ..analysis.costs import (
        dissent_v1_cost,
        dissent_v2_cost,
        onion_routing_cost,
        optimal_server_count,
        rac_cost,
    )

    n = int(params["nodes"])
    G = int(params.get("group_size", 1000))
    L = int(params.get("num_relays", 5))
    R = int(params.get("num_rings", 7))
    return {
        "onion_copies": onion_routing_cost(L).total_copies(),
        "dissent_v1_copies": dissent_v1_cost(n).total_copies(),
        "dissent_v2_copies": dissent_v2_cost(n).total_copies(),
        "rac_grouped_copies": rac_cost(n, G, L, R).total_copies(),
        "servers": float(optimal_server_count(n)),
    }
