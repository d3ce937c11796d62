"""The layer table: what the traced run wraps, and the per-layer metrics.

``TARGETS`` lists, per layer of ``src/repro``, the public entry points
and the callbacks the layer hands to the layer below it. A callable that
is not listed is charged to its nearest listed caller, so glue such as
``RacSystem.unicast`` counts as ``core.node`` time. A refactor that
renames one of these paths must re-point it here (a later ``benchmark``
PR); :func:`spans.SpanRecorder.install` fails loudly on a missing name.

``PER_LAYER`` is the fixed list of per-layer metrics every traced run
reports (zero where a workload does not touch the layer), and
:func:`layer_metrics` fills it from the span ledger, the program's own
counters and the workload's extras.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from spans import Target

__all__ = ["TARGETS", "PER_LAYER", "layer_metrics", "layer_shares"]


def _targets(layer: str, module: str, names: str, **options) -> "List[Target]":
    return [Target(layer, f"repro.{module}:{name}", **options) for name in names.split()]


TARGETS: "List[Target]" = [
    # -- simnet ------------------------------------------------------------
    *_targets("simnet.engine", "simnet.engine", "Simulator.run Simulator.schedule ScheduledEvent.cancel"),
    # One dispatched event is the sampling unit of sim span trees.
    *_targets("simnet.engine", "simnet.engine", "Simulator.step", root=True),
    *_targets(
        "simnet.network",
        "simnet.network",
        "StarNetwork.send StarNetwork._at_router StarNetwork._enqueue_downlink "
        "StarNetwork._deliver StarNetwork.attach StarNetwork.detach",
    ),
    *_targets(
        "simnet.transport",
        "simnet.transport",
        "ReliableTransport.send ReliableTransport._on_packet ReliableTransport._on_timeout "
        "ReliableTransport.attach ReliableTransport.detach",
    ),
    *_targets(
        "simnet.faults",
        "simnet.faults",
        "FaultInjector.drop_reason FaultInjector.set_loss_rate FaultInjector.schedule_outage "
        "FaultInjector.schedule_partition FaultInjector.schedule_degradation "
        "FaultInjector._scale_links",
    ),
    *_targets(
        "simnet.stats",
        "simnet.stats",
        "StatsRegistry.add LatencyMeter.record ThroughputMeter.record",
    ),
    *_targets("simnet.snapshot", "simnet.snapshot", "save_snapshot", sized_result="value"),
    *_targets("simnet.snapshot", "simnet.snapshot", "load_snapshot"),
    *_targets(
        "simnet.shard",
        "simnet.shard",
        "build_shard_system epoch_step shard_summary canonical_blob chain_fingerprint "
        "merge_fingerprint delivered_payloads",
    ),
    # -- orchestrator ------------------------------------------------------
    *_targets(
        "orchestrator.sharded",
        "orchestrator.sharded",
        "run_sharded _write_json _read_json write_sharded_manifest load_sharded_manifest",
    ),
    # One (shard, epoch) cell is the sampling unit of sharded span trees.
    *_targets("orchestrator.sharded", "orchestrator.sharded", "run_shard_epoch", root=True),
    *_targets("orchestrator.sharded", "orchestrator.store", "ResultStore.append ResultStore.completed_ids"),
    # -- core --------------------------------------------------------------
    *_targets(
        "core.node",
        "core.node",
        "RacNode.on_message RacNode._tick RacNode._check_predecessors "
        "RacNode._collect_relay_suspicions RacNode._finalize_rate_high_eviction "
        "RacNode.queue_message RacNode.start RacNode.shuffle_contribution "
        "RacNode.ingest_shuffle_round RacNode.on_evicted",
    ),
    *_targets("core.onion", "core.onion", "build_onion peel build_noise unwrap_wire"),
    *_targets(
        "core.monitor",
        "core.monitor",
        "RelayMonitor.expect RelayMonitor.observe RelayMonitor.collect_expired "
        "RelayMonitor.pending_refs PredecessorMonitor.on_first_seen PredecessorMonitor.due "
        "PredecessorMonitor.missing PredecessorMonitor.forget_node RateMonitor.record "
        "RateMonitor.check RateMonitor.track RateMonitor.untrack",
    ),
    *_targets(
        "core.blacklist",
        "core.blacklist",
        "Blacklist.add Blacklist.__contains__ Blacklist.members "
        "EvictionTracker.record_predecessor_accusation EvictionTracker.record_rate_high_accusation "
        "EvictionTracker.record_relay_round EvictionTracker.confirm_eviction EvictionTracker.forget",
    ),
    *_targets("core.wire", "core.wire", "encode_message", sized_result="len"),
    *_targets("core.wire", "core.wire", "decode_message encoded_size"),
    # -- overlay -----------------------------------------------------------
    *_targets(
        "overlay.rings",
        "overlay.rings",
        "RingTopology.successor RingTopology.predecessor RingTopology.successors "
        "RingTopology.predecessors RingTopology.successor_set RingTopology.add_node "
        "RingTopology.remove_node",
    ),
    *_targets(
        "overlay.broadcast",
        "overlay.broadcast",
        "BroadcastState.on_receive BroadcastState.copies_from BroadcastState.missing_predecessors "
        "BroadcastState.forget_before",
    ),
    # -- crypto ------------------------------------------------------------
    *_targets("crypto.keys", "crypto.keys", "seal KeyPair.unseal KeyPair.generate"),
    *_targets(
        "crypto.dh",
        "crypto.dh",
        "DHPrivateKey.shared_secret DHGroup.fixed_base_pow generate_keypair",
    ),
    *_targets("crypto.stream", "crypto.stream", "encrypt decrypt", sized_arg=2),
    *_targets("crypto.shuffle", "crypto.shuffle", "run_shuffle ShuffleParticipant.__init__"),
    # -- live --------------------------------------------------------------
    *_targets("live.framing", "live.framing", "write_frame", sized_arg=1),
    *_targets("live.framing", "live.framing", "encode_hello decode_hello"),
    *_targets(
        "live.environment",
        "live.environment",
        "LiveEnvironment.unicast LiveEnvironment.schedule LiveEnvironment.on_delivered "
        "LiveEnvironment.domain_view PeerLink.send",
    ),
    # One received frame is the sampling unit of live span trees. The
    # receive path lives in repro.live.node; it is the environment's
    # inbound half, so it is booked under the same layer.
    *_targets("live.environment", "live.node", "LiveNode._dispatch", root=True),
]


#: (name, unit, better). Counts and costs are better lower; ratios of
#: useful work and rates are better higher.
PER_LAYER: "List[Tuple[str, str, str]]" = [
    ("simnet.engine.events", "count", "lower"),
    ("simnet.engine.events_per_s", "1/s", "higher"),
    ("simnet.engine.bare_events_per_s", "1/s", "higher"),
    ("simnet.engine.self_s", "s", "lower"),
    ("simnet.engine.cancelled_ratio", "ratio", "lower"),
    ("simnet.engine.queue_compactions", "count", "lower"),
    ("simnet.network.packets", "count", "lower"),
    ("simnet.network.drops", "count", "lower"),
    ("simnet.network.self_s", "s", "lower"),
    ("simnet.transport.segments", "count", "lower"),
    ("simnet.transport.retransmit_ratio", "ratio", "lower"),
    ("simnet.transport.duplicates", "count", "lower"),
    ("simnet.transport.self_s", "s", "lower"),
    ("simnet.faults.drops", "count", "lower"),
    ("simnet.faults.self_s", "s", "lower"),
    ("simnet.stats.add_calls", "count", "lower"),
    ("simnet.stats.self_s", "s", "lower"),
    ("simnet.snapshot.saves", "count", "lower"),
    ("simnet.snapshot.bytes", "bytes", "lower"),
    ("simnet.snapshot.save_s", "s", "lower"),
    ("simnet.snapshot.load_s", "s", "lower"),
    ("simnet.shard.build_s", "s", "lower"),
    ("simnet.shard.epoch_step_s", "s", "lower"),
    ("simnet.shard.fingerprint_s", "s", "lower"),
    ("orchestrator.sharded.barrier_s", "s", "lower"),
    ("orchestrator.sharded.store_s", "s", "lower"),
    ("orchestrator.sharded.events_per_core_s", "1/s", "higher"),
    ("core.node.on_message_calls", "count", "lower"),
    ("core.node.tick_calls", "count", "lower"),
    ("core.node.self_s", "s", "lower"),
    ("overlay.rings.neighbor_calls", "count", "lower"),
    ("overlay.rings.self_s", "s", "lower"),
    ("overlay.broadcast.receipts", "count", "lower"),
    ("overlay.broadcast.duplicate_ratio", "ratio", "lower"),
    ("overlay.broadcast.self_s", "s", "lower"),
    ("core.onion.build_calls", "count", "lower"),
    ("core.onion.build_s", "s", "lower"),
    ("core.onion.peel_calls", "count", "lower"),
    ("core.onion.peel_s", "s", "lower"),
    ("core.onion.peel_hit_ratio", "ratio", "higher"),
    ("core.onion.peel_skipped", "count", "higher"),
    ("crypto.keys.seal_calls", "count", "lower"),
    ("crypto.keys.seal_s", "s", "lower"),
    ("crypto.keys.unseal_calls", "count", "lower"),
    ("crypto.keys.unseal_s", "s", "lower"),
    ("crypto.keys.unseal_ok_ratio", "ratio", "higher"),
    ("crypto.dh.shared_secret_calls", "count", "lower"),
    ("crypto.dh.self_s", "s", "lower"),
    ("crypto.stream.bytes", "bytes", "lower"),
    ("crypto.stream.self_s", "s", "lower"),
    ("crypto.shuffle.rounds", "count", "lower"),
    ("crypto.shuffle.messages", "count", "lower"),
    ("crypto.shuffle.self_s", "s", "lower"),
    ("core.monitor.calls", "count", "lower"),
    ("core.monitor.suspicions", "count", "lower"),
    ("core.monitor.self_s", "s", "lower"),
    ("core.blacklist.accusations", "count", "lower"),
    ("core.blacklist.evictions", "count", "lower"),
    ("core.blacklist.self_s", "s", "lower"),
    ("core.blacklist.detection_time_s", "s", "lower"),
    ("core.wire.encode_calls", "count", "lower"),
    ("core.wire.encode_s", "s", "lower"),
    ("core.wire.decode_calls", "count", "lower"),
    ("core.wire.decode_s", "s", "lower"),
    ("core.wire.bytes", "bytes", "lower"),
    ("live.framing.frames", "count", "lower"),
    ("live.framing.bytes", "bytes", "lower"),
    ("live.framing.self_s", "s", "lower"),
    ("live.environment.unicast_calls", "count", "lower"),
    ("live.environment.backlog_drops", "count", "lower"),
    ("live.environment.link_resets", "count", "lower"),
    ("live.environment.callback_errors", "count", "lower"),
    ("live.environment.self_s", "s", "lower"),
    ("live.environment.cpu_us_per_frame", "us", "lower"),
    ("live.loadgen.late_p95_ms", "ms", "lower"),
    ("live.loadgen.loop_util", "ratio", "lower"),
    ("live.loadgen.max_clean_slot_rate", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    ledger: "Mapping[str, Mapping[str, Mapping[str, float]]]",
    counters: "Mapping[str, float]",
    extras: "Mapping[str, float]",
) -> "Dict[str, float]":
    """Every :data:`PER_LAYER` metric, by name.

    ``ledger`` is :meth:`spans.SpanRecorder.ledger` of the traced window,
    ``counters`` the program's own counters over the same window
    (``stats_report()`` deltas or ``LiveReport.counters()``), ``extras``
    what only the workload knows (untraced rates, load-generator lateness,
    detection time, the trace totals).
    """

    def entry(layer: str, name: str) -> "Mapping[str, float]":
        return ledger.get(layer, {}).get(name, {"calls": 0, "raised": 0, "self_s": 0.0, "units": 0})

    def self_s(layer: str, *names: str) -> float:
        entries = ledger.get(layer, {})
        picked = names or tuple(entries)
        return sum(entries[n]["self_s"] for n in picked if n in entries)

    def calls(layer: str, *names: str) -> int:
        return sum(entry(layer, n)["calls"] for n in names)

    c = counters.get
    accusations = sum(v for k, v in counters.items() if k.startswith("accusation_"))
    fault_drops = sum(
        v for k, v in counters.items() if k.startswith("net_dropped_") and k != "net_dropped_detached"
    )
    peels = calls("core.onion", "peel")
    unseals = entry("crypto.keys", "KeyPair.unseal")
    receipts = calls("overlay.broadcast", "BroadcastState.on_receive")

    values = {
        "simnet.engine.events": c("sim_events_processed", 0),
        "simnet.engine.self_s": self_s("simnet.engine"),
        "simnet.engine.cancelled_ratio": _ratio(c("sim_events_cancelled", 0), c("sim_events_processed", 0)),
        "simnet.engine.queue_compactions": c("sim_queue_compactions", 0),
        "simnet.network.packets": c("net_packets_delivered", 0) + c("net_packets_dropped", 0),
        "simnet.network.drops": c("net_packets_dropped", 0),
        "simnet.network.self_s": self_s("simnet.network"),
        "simnet.transport.segments": c("transport_segments_sent", 0),
        "simnet.transport.retransmit_ratio": _ratio(
            c("transport_retransmits", 0), c("transport_segments_sent", 0)
        ),
        "simnet.transport.duplicates": c("transport_duplicates", 0),
        "simnet.transport.self_s": self_s("simnet.transport"),
        "simnet.faults.drops": fault_drops,
        "simnet.faults.self_s": self_s("simnet.faults"),
        "simnet.stats.add_calls": calls("simnet.stats", "StatsRegistry.add"),
        "simnet.stats.self_s": self_s("simnet.stats"),
        "simnet.snapshot.saves": calls("simnet.snapshot", "save_snapshot"),
        "simnet.snapshot.bytes": entry("simnet.snapshot", "save_snapshot")["units"],
        "simnet.snapshot.save_s": self_s("simnet.snapshot", "save_snapshot"),
        "simnet.snapshot.load_s": self_s("simnet.snapshot", "load_snapshot"),
        "simnet.shard.build_s": self_s("simnet.shard", "build_shard_system"),
        "simnet.shard.epoch_step_s": self_s("simnet.shard", "epoch_step"),
        "simnet.shard.fingerprint_s": self_s(
            "simnet.shard",
            "shard_summary",
            "canonical_blob",
            "chain_fingerprint",
            "merge_fingerprint",
            "delivered_payloads",
        ),
        "orchestrator.sharded.barrier_s": self_s("orchestrator.sharded", "_write_json", "_read_json"),
        "orchestrator.sharded.store_s": self_s(
            "orchestrator.sharded", "ResultStore.append", "ResultStore.completed_ids"
        ),
        "core.node.on_message_calls": calls("core.node", "RacNode.on_message"),
        "core.node.tick_calls": calls("core.node", "RacNode._tick"),
        "core.node.self_s": self_s("core.node"),
        "overlay.rings.neighbor_calls": calls(
            "overlay.rings", "RingTopology.successor", "RingTopology.predecessor"
        ),
        "overlay.rings.self_s": self_s("overlay.rings"),
        "overlay.broadcast.receipts": receipts,
        # Every first-seen broadcast is forwarded once; the rest of the
        # receipts were ring copies of something already seen.
        "overlay.broadcast.duplicate_ratio": max(0.0, 1.0 - _ratio(c("broadcast_forwards", 0), receipts)),
        "overlay.broadcast.self_s": self_s("overlay.broadcast"),
        "core.onion.build_calls": calls("core.onion", "build_onion"),
        "core.onion.build_s": self_s("core.onion", "build_onion", "build_noise"),
        "core.onion.peel_calls": peels,
        "core.onion.peel_s": self_s("core.onion", "peel", "unwrap_wire"),
        "core.onion.peel_hit_ratio": _ratio(
            c("relay_duties", 0) + c("relay_skipped", 0) + c("delivered", 0), peels
        ),
        "core.onion.peel_skipped": c("peel_skipped_duplicate", 0),
        "crypto.keys.seal_calls": calls("crypto.keys", "seal"),
        "crypto.keys.seal_s": self_s("crypto.keys", "seal", "KeyPair.generate"),
        "crypto.keys.unseal_calls": unseals["calls"],
        "crypto.keys.unseal_s": self_s("crypto.keys", "KeyPair.unseal"),
        "crypto.keys.unseal_ok_ratio": _ratio(unseals["calls"] - unseals["raised"], unseals["calls"]),
        "crypto.dh.shared_secret_calls": calls("crypto.dh", "DHPrivateKey.shared_secret"),
        "crypto.dh.self_s": self_s("crypto.dh"),
        "crypto.stream.bytes": entry("crypto.stream", "encrypt")["units"]
        + entry("crypto.stream", "decrypt")["units"],
        "crypto.stream.self_s": self_s("crypto.stream"),
        "crypto.shuffle.rounds": c("blacklist_rounds", 0),
        "crypto.shuffle.messages": c("shuffle_messages", 0),
        "crypto.shuffle.self_s": self_s("crypto.shuffle"),
        "core.monitor.calls": sum(e["calls"] for e in ledger.get("core.monitor", {}).values()),
        "core.monitor.suspicions": c("relay_blacklisted", 0) + accusations,
        "core.monitor.self_s": self_s("core.monitor"),
        "core.blacklist.accusations": accusations,
        "core.blacklist.evictions": c("evictions", 0) + c("evictions_applied", 0),
        "core.blacklist.self_s": self_s("core.blacklist"),
        "core.wire.encode_calls": calls("core.wire", "encode_message"),
        "core.wire.encode_s": self_s("core.wire", "encode_message", "encoded_size"),
        "core.wire.decode_calls": calls("core.wire", "decode_message"),
        "core.wire.decode_s": self_s("core.wire", "decode_message"),
        "core.wire.bytes": entry("core.wire", "encode_message")["units"],
        "live.framing.frames": c("live_frames_sent", 0),
        "live.framing.bytes": c("live_bytes_sent", 0),
        "live.framing.self_s": self_s("live.framing"),
        "live.environment.unicast_calls": calls("live.environment", "LiveEnvironment.unicast"),
        "live.environment.backlog_drops": c("live_frames_dropped_backlog", 0),
        "live.environment.link_resets": c("live_link_resets", 0),
        "live.environment.callback_errors": c("live_callback_errors", 0) + c("live_dispatch_errors", 0),
        "live.environment.self_s": self_s("live.environment"),
    }
    for name, _unit, _better in PER_LAYER:
        if name not in values:
            values[name] = extras.get(name, 0.0)
    return {name: float(values[name]) for name, _unit, _better in PER_LAYER}


def layer_shares(ledger: "Mapping[str, Mapping[str, Mapping[str, float]]]") -> "List[Tuple[str, float]]":
    """(layer, self seconds) sorted with the most expensive layer first."""
    totals = {
        layer: sum(row["self_s"] for row in entries.values()) for layer, entries in ledger.items()
    }
    return sorted(totals.items(), key=lambda item: -item[1])
