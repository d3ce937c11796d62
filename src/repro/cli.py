"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro fig1              # Figure 1 table
    python -m repro fig3              # Figure 3 table
    python -m repro table1            # Table I
    python -m repro claims            # in-text numeric claims scoreboard
    python -m repro nash              # Section V-B deviation analysis
    python -m repro ablation          # L / R / G tradeoff sweeps
    python -m repro trace             # Figure 2 walkthrough
    python -m repro measure --nodes 10  # packet-level throughput point
    python -m repro live demo --nodes 8 --duration 10  # real-TCP cluster
    python -m repro chaos run --substrate both  # fault plan + invariant check
    python -m repro campaign run --spec smoke --run-dir /tmp/c  # adversarial matrix
    python -m repro scale verify --nodes 64 --shards 2  # sharded == monolithic
    python -m repro pubsub bench --check  # live pub/sub with dynamic membership
    python -m repro results list | make NAME... | check [NAME...]

``results`` is the one door to the committed ``results/*.txt`` files
(:mod:`repro.experiments.artefacts`); ``fig1``, ``claims``, ``nash``,
``ablation`` and ``report`` print the text of their row.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _scenario_flags(
    p: argparse.ArgumentParser, *, nodes: int, seconds, check: str, substrates: "Optional[str]" = None
) -> None:
    """The flags every judged scenario command shares (`live demo`,
    `chaos run`, `topo run`); ``seconds`` is (flag, default, help)."""
    flag, default, what = seconds
    if substrates is not None:
        p.add_argument("--substrate", choices=("sim", "live", "both"), default="sim", help=substrates)
    p.add_argument("--nodes", type=int, default=nodes, help=f"population size (default {nodes})")
    p.add_argument(flag, type=float, default=default, help=f"{what} (default {default:g})")
    p.add_argument("--seed", type=int, default=0, help="population, plan and traffic seed (default 0)")
    p.add_argument(
        "--port-base",
        type=int,
        default=None,
        metavar="P",
        help="live substrate: bind node i to port P+i (default: ephemeral ports)",
    )
    p.add_argument("--check", action="store_true", help=check)


def _run_and_report(
    args: argparse.Namespace,
    harness: str,
    flags: "tuple",
    expect: str = "invariant violation(s) above",
    passed=lambda outcome: outcome.ok,
) -> int:
    """One scenario of ``harness`` per requested substrate, built from
    the named ``flags``: run, print; with ``--check`` exit 1 unless all
    ``passed``. A field a substrate would drop exits 2 before any run."""
    from .scenario import HARNESSES, Scenario, UnsupportedOnSubstrate, run_scenario

    chosen = getattr(args, "substrate", HARNESSES[harness].get("substrate"))
    substrates = ("sim", "live") if chosen == "both" else (chosen,)
    params = {flag: getattr(args, flag) for flag in flags}
    try:
        scenarios = [
            Scenario.from_params({**params, "substrate": substrate}, args.seed, harness)
            for substrate in substrates
        ]
        for substrate, scenario in zip(substrates, scenarios):
            scenario.check_substrate(substrate)
    except UnsupportedOnSubstrate as exc:
        print(exc)
        return 2
    except ValueError as exc:
        raise SystemExit(str(exc))
    failed = False
    for substrate, scenario in zip(substrates, scenarios):
        outcome = run_scenario(scenario, substrate, port_base=args.port_base)
        print(outcome.render())
        failed = failed or not passed(outcome)
    if args.check and failed:
        print(f"{args.command} run FAILED: {expect}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .chaos.plan import CANNED_PLANS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAC (ICDCS 2013) reproduction - regenerate paper figures and tables",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the top 25 functions "
        "by cumulative time to stderr (hot-path triage for the simulator)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="Figure 1: Dissent v1/v2 throughput vs N")

    fig3 = sub.add_parser("fig3", help="Figure 3: RAC vs baselines throughput vs N")
    fig3.add_argument("--group-size", type=int, default=1000, help="G (default 1000)")
    fig3.add_argument("--relays", type=int, default=5, help="L (default 5)")
    fig3.add_argument("--rings", type=int, default=7, help="R (default 7)")

    table1 = sub.add_parser("table1", help="Table I: anonymity guarantees")
    table1.add_argument("--nodes", type=int, default=100_000, help="N (default 100000)")
    table1.add_argument("--group-size", type=int, default=1000, help="G (default 1000)")

    sub.add_parser("claims", help="scoreboard of every in-text numeric claim")
    sub.add_parser("nash", help="Section V-B Nash deviation analysis")
    sub.add_parser("ablation", help="L/R/G anonymity-vs-performance sweeps")

    trace = sub.add_parser("trace", help="Figure 2: one onion's dissemination, traced")
    trace.add_argument("--population", type=int, default=10)
    trace.add_argument("--seed", type=int, default=7)

    measure = sub.add_parser("measure", help="packet-level RAC throughput measurement")
    measure.add_argument("--nodes", type=int, default=10)
    measure.add_argument("--duration", type=float, default=2.0)
    measure.add_argument("--seed", type=int, default=3)

    sub.add_parser("report", help="full reproduction report (all paper artefacts in one text)")

    results = sub.add_parser(
        "results",
        help="the committed results/*.txt artefacts: `list` the registry, `make` rows (rebuild "
        "and write their files), `check` rows (rebuild in memory, run their gates, diff pinned "
        "rows against results/; default: every pinned+fast row)",
    )
    results.add_argument("action", choices=("list", "make", "check"))
    results.add_argument("names", nargs="*", metavar="NAME", help="registry rows")

    sweep = sub.add_parser(
        "sweep", help="parallel (config x seed) sweep campaigns with checkpoint/resume"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    run = sweep_sub.add_parser("run", help="launch a new sweep campaign")
    run.add_argument("--run-dir", required=True, help="campaign directory (manifest, store, checkpoints)")
    run.add_argument("--experiment", required=True, help="registered workload name (e.g. protocol)")
    run.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="swept parameter axis; repeatable",
    )
    run.add_argument("--seeds", default="0", help="comma-separated seed list (default: 0)")
    run.add_argument(
        "--base",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="constant parameter shared by every cell; repeatable",
    )
    run.add_argument("--workers", type=int, default=2, help="worker processes (default 2)")
    run.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SIM_SECONDS",
        help="snapshot long runs every N sim-seconds (default: off)",
    )
    run.add_argument("--max-retries", type=int, default=2, help="extra attempts per crashed cell")
    run.add_argument(
        "--timeout", type=float, default=None, help="wall-seconds before a worker counts as hung"
    )
    run.add_argument("--serial", action="store_true", help="run in-process without the worker pool")
    run.add_argument(
        "--inject-crash",
        type=int,
        default=0,
        metavar="K",
        help="chaos-test: kill the first attempt of the first K pending cells",
    )

    resume = sweep_sub.add_parser("resume", help="continue an interrupted campaign")
    resume.add_argument("--run-dir", required=True)
    resume.add_argument("--workers", type=int, default=None, help="override manifest worker count")

    status = sweep_sub.add_parser("status", help="progress of a campaign")
    status.add_argument("--run-dir", required=True)

    aggregate = sweep_sub.add_parser("aggregate", help="summarize a campaign's result store")
    aggregate.add_argument("--run-dir", required=True)
    aggregate.add_argument("--metric", required=True, help="metric name to aggregate")
    aggregate.add_argument("--by", default="seed", help="group rows by this parameter (default: seed)")

    live = sub.add_parser("live", help="asyncio runtime: RAC nodes over real TCP sockets")
    live_sub = live.add_subparsers(dest="live_command", required=True)

    demo = live_sub.add_parser("demo", help="run a live cluster on localhost and report")
    _scenario_flags(
        demo,
        nodes=8,
        seconds=("--duration", 10.0, "wall seconds"),
        check="exit nonzero unless >=1 delivery, 0 evictions and 0 rejected or unsendable frames (CI smoke contract)",
    )
    demo.add_argument(
        "--messages", type=int, default=2, help="anonymous messages queued per node (default 2)"
    )
    demo.add_argument(
        "--subprocess",
        action="store_true",
        help="one worker process per node instead of asyncio tasks",
    )

    chaos = sub.add_parser(
        "chaos", help="scripted fault plans with invariant-checked runs on sim or live"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_sub.add_parser(
        "run", help="play one fault plan on a substrate and judge the invariants"
    )
    _scenario_flags(
        chaos_run,
        nodes=6,
        seconds=("--horizon", 18.0, "plan horizon / run seconds"),
        check="exit nonzero on any invariant violation (CI smoke contract)",
        substrates="where the plan runs (default sim; 'both' runs the same plan twice)",
    )
    chaos_run.add_argument(
        "--plan",
        choices=CANNED_PLANS,
        default="smoke",
        help="canned timeline: none = no faults; smoke = 1 crash-restart + 1 "
        "partition; storm = seeded random fault mix (default smoke)",
    )
    chaos_run.add_argument(
        "--heal-bound",
        type=float,
        default=4.0,
        help="seconds after each fault heals within which delivery must resume",
    )

    chaos_plan = chaos_sub.add_parser("plan", help="print a plan's timeline and fingerprint")
    chaos_plan.add_argument("--plan", choices=CANNED_PLANS, default="smoke")
    chaos_plan.add_argument("--nodes", type=int, default=6)
    chaos_plan.add_argument("--horizon", type=float, default=18.0)
    chaos_plan.add_argument("--seed", type=int, default=0)

    campaign = sub.add_parser(
        "campaign",
        help="adversarial matrix: strategies x fault plans x loss points, "
        "scored into an accountability frontier",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    crun = campaign_sub.add_parser("run", help="expand a campaign spec and run it on the pool")
    crun.add_argument("--run-dir", required=True, help="campaign directory (manifest, store)")
    crun.add_argument(
        "--spec",
        choices=("smoke", "full", "coalition", "coalition-smoke"),
        default=None,
        help="start from a canned matrix (smoke = CI mini-matrix, full = "
        "the committed artefact, coalition = the colluding-fraction sweep, "
        "coalition-smoke = its CI mini version); explicit axis flags "
        "override its fields",
    )
    crun.add_argument(
        "--strategies", default=None, help="comma-separated behaviour registry names"
    )
    crun.add_argument("--plans", default=None, help="comma-separated fault plans (none,smoke,storm)")
    crun.add_argument("--loss", default=None, help="comma-separated link-loss intensities")
    crun.add_argument("--nodes", default=None, help="comma-separated group sizes")
    crun.add_argument(
        "--topologies",
        default=None,
        help="comma-separated topology presets (lan,wan-king,hetero-access,"
        "planet-diurnal) — the network-shape axis (default lan)",
    )
    crun.add_argument("--seeds", default=None, help="comma-separated seed list")
    crun.add_argument(
        "--coalition-fraction",
        default=None,
        help="comma-separated colluding fractions in (0, 0.5) — plants "
        "round(fraction x nodes) coordinated deviants per cell (coalition "
        "strategies only)",
    )
    crun.add_argument(
        "--coalition-size",
        default=None,
        help="comma-separated coalition member counts; converted to "
        "fractions against the single --nodes value (mutually exclusive "
        "with --coalition-fraction)",
    )
    crun.add_argument(
        "--shuffle-rounds",
        type=int,
        default=None,
        help="minimum blacklist-shuffle rounds per cell (derives the "
        "blacklist period from the horizon)",
    )
    crun.add_argument("--horizon", type=float, default=None, help="per-cell sim seconds")
    crun.add_argument(
        "--detection-bound",
        type=float,
        default=None,
        help="sim-seconds by which a detectable misbehaver must be evicted "
        "(default: the horizon)",
    )
    crun.add_argument("--heal-bound", type=float, default=None, help="liveness bound (seconds)")
    crun.add_argument("--workers", type=int, default=2, help="worker processes (default 2)")
    crun.add_argument("--serial", action="store_true", help="run in-process without the pool")
    crun.add_argument(
        "--inject-crash",
        type=int,
        default=0,
        metavar="K",
        help="chaos-test: kill the first attempt of the first K pending cells",
    )
    crun.add_argument("--max-retries", type=int, default=2, help="extra attempts per crashed cell")
    crun.add_argument(
        "--timeout", type=float, default=None, help="wall-seconds before a worker counts as hung"
    )

    creport = campaign_sub.add_parser(
        "report", help="fold the result store into the accountability frontier"
    )
    creport.add_argument("--run-dir", required=True)
    creport.add_argument("--out", default=None, help="also write the frontier to this file")
    creport.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the baseline is sound and no cell anywhere "
        "evicted an honest node (CI smoke contract)",
    )

    topo = sub.add_parser(
        "topo",
        help="WAN topology models: fingerprinted latency/bandwidth presets "
        "played on either substrate",
    )
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)

    topo_sub.add_parser("list", help="list the canned topology presets")

    tshow = topo_sub.add_parser("show", help="describe one preset (fingerprint, classes)")
    tshow.add_argument("--preset", required=True, help="preset name (see `repro topo list`)")
    tshow.add_argument("--nodes", type=int, default=10, help="population size (default 10)")
    tshow.add_argument("--seed", type=int, default=0, help="preset sampler seed (default 0)")
    tshow.add_argument(
        "--matrix", action="store_true", help="also print the full latency matrix"
    )

    trun = topo_sub.add_parser(
        "run", help="play one topology on a substrate and judge the invariants"
    )
    trun.add_argument(
        "--preset", dest="topology", required=True, help="preset name (see `repro topo list`)"
    )
    _scenario_flags(
        trun,
        nodes=10,
        seconds=("--horizon", 12.0, "run seconds"),
        check="exit nonzero on any invariant violation (CI smoke contract)",
        substrates="where the model runs (default sim; 'both' runs it twice)",
    )
    trun.add_argument(
        "--topology-seed", type=int, default=0, help="preset sampler seed (default 0)"
    )
    trun.add_argument(
        "--deviant",
        default="honest",
        help="behaviour registry name to plant (sim only: exit 2 on live; default honest)",
    )
    trun.add_argument(
        "--timer-scale",
        type=float,
        default=1.0,
        help="misbehaviour timers x this factor (default 1.0)",
    )
    trun.add_argument(
        "--no-contract",
        dest="enforce_contract",
        action="store_false",
        help="bypass the topology timer contract (the false-positive probe)",
    )
    trun.add_argument(
        "--churn",
        action="store_true",
        help="compile the model's diurnal churn trace onto the run",
    )

    topo_sub.add_parser(
        "verify",
        help="lan-equivalence gate: the lan preset must be byte-identical "
        "to running with no topology at all",
    )

    scale = sub.add_parser(
        "scale",
        help="group-sharded parallel simulation: one deterministic "
        "sub-simulator per group bundle, merged at epoch barriers",
    )
    scale_sub = scale.add_subparsers(dest="scale_command", required=True)

    def _scale_spec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=64, help="population size (default 64)")
        p.add_argument("--shards", type=int, default=2, help="sub-simulators (default 2)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--horizon", type=float, default=4.0, help="sim seconds (default 4)")
        p.add_argument("--epoch", type=float, default=1.0, help="barrier period (default 1)")
        p.add_argument(
            "--messages", type=int, default=1, help="messages per node pair (default 1)"
        )
        p.add_argument("--group-max", type=int, default=16, help="group split bound (default 16)")
        p.add_argument(
            "--deviant",
            action="append",
            default=[],
            metavar="INDEX=BEHAVIOR",
            help="plant a freeride behaviour at a 1-based creation index; repeatable",
        )

    srun = scale_sub.add_parser("run", help="run a sharded simulation on the worker pool")
    srun.add_argument("--run-dir", required=True, help="run directory (barriers, snapshots, store)")
    _scale_spec_flags(srun)
    srun.add_argument("--workers", type=int, default=2, help="worker processes (default 2)")
    srun.add_argument("--serial", action="store_true", help="run shards in-process, no pool")
    srun.add_argument(
        "--inject-crash",
        type=int,
        default=0,
        metavar="K",
        help="chaos-test: kill the first attempt of the first K shard cells",
    )
    srun.add_argument(
        "--verify",
        action="store_true",
        help="also run the monolithic simulation and assert outcome equivalence",
    )

    sverify = scale_sub.add_parser(
        "verify", help="serial sharded run + monolithic run, compared for equivalence"
    )
    sverify.add_argument(
        "--run-dir", default=None, help="run directory (default: a fresh temp dir)"
    )
    _scale_spec_flags(sverify)

    pubsub = sub.add_parser(
        "pubsub",
        help="anonymous pub/sub service over the live runtime: topics, "
        "puzzle-gated joins, live group splits/dissolves",
    )
    pubsub_sub = pubsub.add_subparsers(dest="pubsub_command", required=True)

    pserve = pubsub_sub.add_parser(
        "serve", help="run the service on localhost and accept client frames"
    )
    pserve.add_argument("--nodes", type=int, default=6, help="bootstrap size (default 6)")
    pserve.add_argument("--seed", type=int, default=0, help="population seed (default 0)")
    pserve.add_argument(
        "--api-port", type=int, default=0, help="client API port (default: ephemeral)"
    )
    pserve.add_argument(
        "--port-base",
        type=int,
        default=None,
        metavar="P",
        help="bind node i to port P+i (default: ephemeral ports)",
    )
    pserve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="wall seconds to serve (default: until Ctrl-C)",
    )

    pbench = pubsub_sub.add_parser(
        "bench", help="scripted join/subscribe/publish/leave scenario + report"
    )
    pbench.add_argument("--nodes", type=int, default=6, help="bootstrap size (default 6)")
    pbench.add_argument("--seed", type=int, default=0, help="population seed (default 0)")
    pbench.add_argument(
        "--settle", type=float, default=3.0, help="seconds between scenario phases (default 3)"
    )
    pbench.add_argument(
        "--port-base",
        type=int,
        default=None,
        metavar="P",
        help="bind node i to port P+i (default: ephemeral ports)",
    )
    pbench.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless >=1 live split, >=1 dissolve, 0 evictions "
        "and delivery parity hold (CI smoke contract)",
    )

    pubsub_sub.add_parser("capacity", help="groups x members -> msg/s capacity planning table")

    return parser


def main(argv: "Optional[List[str]]" = None) -> int:
    from .orchestrator.pool import RunDirError

    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "serial", False) and getattr(args, "inject_crash", 0):
            parser.error("--inject-crash kills a worker process; it cannot be combined with --serial")
        if args.profile and args.command != "scale":
            return _profiled_dispatch(args)
        # `scale` profiles per shard inside the workers (one dump per
        # shard id plus a merged report) rather than wrapping the
        # coordinator: two enabled cProfile instances in one process
        # is an error, and the coordinator does no simulation work.
        return _dispatch(args)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; not an error.
        return 0
    except RunDirError as exc:
        # A missing, foreign or already-taken --run-dir: one line, not a traceback.
        print(exc, file=sys.stderr)
        return 2


def _profiled_dispatch(args: argparse.Namespace) -> int:
    """Run the command under cProfile; stats go to stderr so stdout
    stays the command's own text (an artefact table, for a row command)."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return _dispatch(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)


#: Commands that print one registry row's text (exit 1 if its gate fails).
_ROW_COMMANDS = {
    "fig1": "figure1",
    "claims": "text_claims",
    "nash": "nash_analysis",
    "ablation": "ablation",
    "report": "full_report",
}


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in _ROW_COMMANDS:
        from .experiments.artefacts import show

        text, failures = show(_ROW_COMMANDS[args.command])
        print(text)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
    elif args.command == "results":
        return _dispatch_results(args)
    elif args.command == "fig3":
        from .experiments.fig3 import figure3

        print(
            figure3(
                group_size=args.group_size, num_relays=args.relays, num_rings=args.rings
            ).render()
        )
    elif args.command == "table1":
        from .experiments.table1 import table1

        print(table1(N=args.nodes, G=args.group_size).render())
    elif args.command == "trace":
        from .experiments.fig2_trace import trace_dissemination

        trace = trace_dissemination(population=args.population, seed=args.seed)
        print(trace.narrative())
    elif args.command == "sweep":
        return _dispatch_sweep(args)
    elif args.command == "live":
        return _dispatch_live(args)
    elif args.command == "chaos":
        return _dispatch_chaos(args)
    elif args.command == "campaign":
        return _dispatch_campaign(args)
    elif args.command == "topo":
        return _dispatch_topo(args)
    elif args.command == "scale":
        return _dispatch_scale(args)
    elif args.command == "pubsub":
        return _dispatch_pubsub(args)
    elif args.command == "measure":
        from .experiments.empirical import measure_rac_throughput

        m = measure_rac_throughput(
            args.nodes, warmup=0.5, duration=args.duration, seed=args.seed
        )
        print(
            f"N={m.nodes}: measured {m.measured_bps_per_node:,.0f} b/s per node, "
            f"model {m.model_bps_per_node:,.0f} b/s, efficiency {m.efficiency:.2f}, "
            f"{m.deliveries} deliveries, {m.evictions} evictions"
        )
    return 0


def _dispatch_results(args: argparse.Namespace) -> int:
    from .experiments import artefacts

    if args.action == "list":
        print(artefacts.render_index())
        return 0
    unknown = sorted(set(args.names) - set(artefacts.ARTEFACTS))
    if unknown or (args.action == "make" and not args.names):
        raise SystemExit(f"results {args.action}: name rows of `repro results list`, not {unknown}")
    if args.action == "make":
        failures = artefacts.make(args.names)
        print("wrote", *(file for name in args.names for file in artefacts.ARTEFACTS[name].files))
    else:
        failures = artefacts.check(args.names or None)
    print("\n".join(failures + [f"results {args.action} " + ("FAILED" if failures else "OK")]))
    return 1 if failures else 0


def _dispatch_live(args: argparse.Namespace) -> int:
    # what a run without faults leaves at zero: malformed connections or
    # records, frames no link can carry, node bugs caught at dispatch
    unclean = "live_inbound_rejected live_frames_rejected live_frames_dropped_oversize live_dispatch_errors"
    expect = "expected >=1 delivery, 0 evictions, 0 errors, 0 of " + unclean

    def clean(counters) -> bool:
        return not any(counters.get(name) for name in unclean.split())

    if args.subprocess:
        from .live.cluster import run_subprocess_demo

        report = run_subprocess_demo(
            args.nodes,
            args.duration,
            seed=args.seed,
            messages=args.messages,
            port_base=args.port_base,
        )
        print(report.render())
        ok = report.deliveries >= 1 and not report.evicted and not report.errors
        if args.check and not (ok and clean(report.counters())):
            print(f"live run FAILED: {expect}")
            return 1
        return 0
    return _run_and_report(
        args,
        "live",
        ("nodes", "duration", "messages"),
        expect,
        lambda o: o.deliveries and not o.evictions and not o.errors and clean(o.counters),
    )


def _dispatch_pubsub(args: argparse.Namespace) -> int:
    if args.pubsub_command == "bench":
        from .pubsub.bench import check_report, run_bench_blocking

        report = run_bench_blocking(
            args.nodes, seed=args.seed, settle=args.settle, port_base=args.port_base
        )
        print(report.render())
        if args.check:
            ok, failures = check_report(report)
            if not ok:
                print("pubsub smoke FAILED:")
                for reason in failures:
                    print(f"  - {reason}")
                return 1
            print("pubsub smoke OK")
    elif args.pubsub_command == "serve":
        import asyncio

        from .pubsub.service import PubSubService

        async def _serve() -> None:
            service = PubSubService(args.nodes, seed=args.seed, port_base=args.port_base)
            await service.start()
            api_port = await service.serve(port=args.api_port)
            print(f"pubsub service: {args.nodes} nodes, client API on 127.0.0.1:{api_port}")
            try:
                if args.duration is not None:
                    await asyncio.sleep(args.duration)
                else:
                    await asyncio.Event().wait()
            except (KeyboardInterrupt, asyncio.CancelledError):
                pass
            report = await service.stop(duration=args.duration or 0.0)
            print(report.render())

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass
    elif args.pubsub_command == "capacity":
        from .pubsub.capacity import capacity_table, render_capacity_table

        print(render_capacity_table(capacity_table()))
    return 0


def _dispatch_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "plan":
        from .chaos.plan import canned_plan

        print(canned_plan(args.plan, args.nodes, args.horizon, args.seed).render())
        return 0
    return _run_and_report(args, "chaos", ("plan", "nodes", "horizon", "heal_bound"))


def _dispatch_campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignSpec, campaign_report, run_campaign
    from .freeride.registry import UnknownBehaviorError

    if args.campaign_command == "run":
        import dataclasses

        canned = {
            "full": CampaignSpec.full,
            "smoke": CampaignSpec.smoke,
            "coalition": CampaignSpec.coalition,
            "coalition-smoke": CampaignSpec.coalition_smoke,
        }
        base = canned[args.spec]() if args.spec else CampaignSpec()
        overrides = {}
        if args.strategies is not None:
            overrides["strategies"] = tuple(
                s for s in args.strategies.split(",") if s != ""
            )
        if args.plans is not None:
            overrides["plans"] = tuple(p for p in args.plans.split(",") if p != "")
        if args.loss is not None:
            overrides["loss_points"] = tuple(
                float(v) for v in args.loss.split(",") if v != ""
            )
        if args.nodes is not None:
            overrides["group_sizes"] = tuple(
                int(v) for v in args.nodes.split(",") if v != ""
            )
        if args.topologies is not None:
            overrides["topologies"] = tuple(
                t for t in args.topologies.split(",") if t != ""
            )
        if args.seeds is not None:
            overrides["seeds"] = tuple(int(s) for s in args.seeds.split(",") if s != "")
        if args.coalition_fraction is not None and args.coalition_size is not None:
            raise SystemExit(
                "bad campaign spec: pass --coalition-fraction or "
                "--coalition-size, not both"
            )
        if args.coalition_fraction is not None:
            overrides["coalition_fractions"] = tuple(
                float(v) for v in args.coalition_fraction.split(",") if v != ""
            )
        if args.coalition_size is not None:
            sizes = overrides.get("group_sizes", base.group_sizes)
            if len(sizes) != 1:
                raise SystemExit(
                    "bad campaign spec: --coalition-size needs exactly one "
                    "group size (use a single --nodes value)"
                )
            overrides["coalition_fractions"] = tuple(
                int(v) / sizes[0] for v in args.coalition_size.split(",") if v != ""
            )
        if args.shuffle_rounds is not None:
            overrides["shuffle_rounds"] = args.shuffle_rounds
        if args.horizon is not None:
            overrides["horizon"] = args.horizon
        if args.detection_bound is not None:
            overrides["detection_bound"] = args.detection_bound
        if args.heal_bound is not None:
            overrides["heal_bound"] = args.heal_bound
        try:
            spec = dataclasses.replace(base, **overrides)
        except (UnknownBehaviorError, ValueError) as exc:
            raise SystemExit(f"bad campaign spec: {exc}")
        print(spec.describe())
        final = run_campaign(
            spec,
            args.run_dir,
            workers=args.workers,
            serial=args.serial,
            inject_crash=args.inject_crash,
            max_retries=args.max_retries,
            timeout=args.timeout,
        )
        print(final.render())
        return 0 if final.failed == 0 and final.pending == 0 else 1
    elif args.campaign_command == "report":
        description, report = campaign_report(args.run_dir)
        text = description + "\n\n" + report.render()
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"\nwrote {args.out}")
        if args.check:
            failures = report.failures()
            if failures:
                print("campaign check FAILED: " + "; ".join(failures))
                return 1
        return 0
    return 0


def _dispatch_topo(args: argparse.Namespace) -> int:
    from .topo.model import PRESET_NAMES, preset

    if args.topo_command == "list":
        blurbs = {
            "lan": "uniform star, zero extra delay (byte-identical to no topology)",
            "wan-king": "king-style synthetic WAN: seeded points on a 40ms plane",
            "hetero-access": "fiber/cable/dsl access tiers, asymmetric up/down",
            "planet-diurnal": "three regions, inter-region delay up to ~100ms one-way",
        }
        for name in PRESET_NAMES:
            print(f"{name:16s} {blurbs[name]}")
        return 0

    if args.topo_command == "show":
        try:
            model = preset(args.preset, args.nodes, seed=args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(model.describe())
        if args.matrix:
            print()
            print(model.render_matrix())
        return 0

    if args.topo_command == "verify":
        from .topo.run import lan_equivalence

        plain, lan_digest = lan_equivalence()
        if plain != lan_digest:
            print(
                "topo verify FAILED: lan preset diverged from the bare star\n"
                f"  no topology: {plain}\n  lan preset : {lan_digest}"
            )
            return 1
        print(f"topo verify OK: lan preset byte-identical to the bare star ({plain[:16]})")
        return 0

    return _run_and_report(
        args,
        "topo",
        ("topology", "topology_seed", "nodes", "horizon", "deviant", "timer_scale",
         "enforce_contract", "churn"),
    )


def _scale_spec_from_args(args: argparse.Namespace):
    from .simnet.shard import ScaleSpec

    deviants = {}
    for pair in args.deviant:
        if "=" not in pair:
            raise SystemExit(f"--deviant expects INDEX=BEHAVIOR, got {pair!r}")
        index, behavior = pair.split("=", 1)
        deviants[int(index)] = behavior
    return ScaleSpec(
        nodes=args.nodes,
        num_shards=args.shards,
        seed=args.seed,
        horizon=args.horizon,
        epoch=args.epoch,
        messages=args.messages,
        group_max=args.group_max,
        deviants=deviants,
    )


def _render_scale_outcome(outcome) -> str:
    lines = [
        f"nodes={outcome.spec.nodes} shards={outcome.spec.num_shards} "
        f"epochs={outcome.spec.epoch_count} horizon={outcome.spec.horizon}s",
        f"delivered {len(outcome.delivered)} payloads, {len(outcome.evicted)} evicted, "
        f"{outcome.events_processed} events in {outcome.wall_seconds:.2f}s wall "
        f"({outcome.events_per_second:,.0f} events/s)",
    ]
    for shard, fingerprint in enumerate(outcome.shard_fingerprints):
        summary = outcome.per_shard[shard]
        lines.append(
            f"  shard {shard}: groups={summary['groups']} nodes={summary['nodes']} "
            f"delivered={len(summary['delivered'])} {fingerprint[:16]}"
        )
    lines.append(f"merged fingerprint: {outcome.merged_fingerprint}")
    return "\n".join(lines)


def _dispatch_scale(args: argparse.Namespace) -> int:
    import tempfile

    from .orchestrator.sharded import run_sharded, verify_sharded

    spec = _scale_spec_from_args(args)
    if args.scale_command == "run":
        outcome = run_sharded(
            spec,
            args.run_dir,
            workers=args.workers,
            serial=args.serial,
            inject_crash=args.inject_crash,
            profile=args.profile,
        )
        print(_render_scale_outcome(outcome))
        if args.profile:
            print(outcome.profile_report)
        if args.verify:
            report = verify_sharded(outcome)
            print(report.render())
            if not report.equivalent:
                return 1
    elif args.scale_command == "verify":
        run_dir = args.run_dir or tempfile.mkdtemp(prefix="rac_scale_verify_")
        outcome = run_sharded(spec, run_dir, serial=True, profile=args.profile)
        print(_render_scale_outcome(outcome))
        if args.profile:
            print(outcome.profile_report)
        report = verify_sharded(outcome)
        print(report.render())
        if not report.equivalent:
            return 1
    return 0


def _parse_scalar(text: str):
    """CLI value → int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_kv(pairs: "List[str]", split_values: bool) -> dict:
    out = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"expected NAME=VALUE, got {pair!r}")
        if split_values:
            out[name] = [_parse_scalar(v) for v in raw.split(",") if v != ""]
        else:
            out[name] = _parse_scalar(raw)
    return out


def _dispatch_sweep(args: argparse.Namespace) -> int:
    from .orchestrator import SweepGrid, open_run, start_run

    if args.sweep_command == "run":
        from .orchestrator.workloads import UnknownWorkloadError, resolve_workload

        try:
            resolve_workload(args.experiment)
        except UnknownWorkloadError as exc:
            raise SystemExit(str(exc))
        axes = _parse_kv(args.axis, split_values=True)
        if not axes:
            raise SystemExit("sweep run needs at least one --axis NAME=V1,V2,...")
        grid = SweepGrid(
            args.experiment,
            axes,
            seeds=[int(s) for s in args.seeds.split(",") if s != ""],
            base_params=_parse_kv(args.base, split_values=False),
        )
        options = {
            "workers": args.workers,
            "checkpoint_interval": args.checkpoint_interval,
            "max_retries": args.max_retries,
            "timeout": args.timeout,
        }
        run = start_run(args.run_dir, grid, options)
        final = run.run(serial=args.serial, inject_crash=args.inject_crash)
        print(final.render())
        return 0 if final.failed == 0 else 1
    elif args.sweep_command == "resume":
        final = open_run(args.run_dir, workers=args.workers).run()
        print(final.render())
        return 0 if final.failed == 0 else 1
    elif args.sweep_command == "status":
        from .campaign.spec import CAMPAIGN_EXPERIMENT, describe_grid

        run = open_run(args.run_dir)
        if run.grid.experiment == CAMPAIGN_EXPERIMENT:
            print(describe_grid(run.grid))
        print(run.status().render())
        return 0
    elif args.sweep_command == "aggregate":
        from .experiments.runner import Table

        store = open_run(args.run_dir).store
        rows, skipped = store.aggregate(args.metric, by=args.by, with_skipped=True)
        if not rows:
            print(f"no successful records with metric {args.metric!r}")
            if skipped:
                print(f"({skipped} successful record(s) lack that metric)")
            return 1
        table = Table(
            headers=[args.by, "n", "mean", "min", "max"],
            title=f"sweep aggregate: {args.metric} by {args.by}",
        )
        for row in rows:
            table.add_row(
                row[args.by],
                row["n"],
                f"{row['mean']:.6g}",
                f"{row['min']:.6g}",
                f"{row['max']:.6g}",
            )
        print(table.render())
        if skipped:
            print(f"skipped {skipped} successful record(s) missing metric {args.metric!r}")
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
