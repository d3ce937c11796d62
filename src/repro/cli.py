"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro fig1              # Figure 1 table
    python -m repro trace             # Figure 2 walkthrough
    python -m repro fig3              # Figure 3 table
    python -m repro measure           # Figure 3's packet-level point (N=10)
    python -m repro table1            # Table I
    python -m repro claims            # in-text numeric claims scoreboard
    python -m repro nash              # Section V-B deviation analysis
    python -m repro ablation          # L / R / G tradeoff sweeps
    python -m repro live demo --nodes 8 --duration 10  # real-TCP cluster
    python -m repro chaos run --substrate both  # fault plan + invariant check
    python -m repro sweep run --experiment chaos --axis plan=smoke,storm --run-dir /tmp/s
    python -m repro campaign run --spec smoke --run-dir /tmp/c  # adversarial matrix
    python -m repro scale verify --nodes 64 --shards 2  # sharded == monolithic
    python -m repro results list | make NAME... | check [NAME...]

``results`` is the one door to the committed ``results/*.txt`` files
(:mod:`repro.experiments.artefacts`); ``fig1``, ``trace``, ``fig3``,
``measure``, ``table1``, ``claims``, ``nash``, ``ablation`` and
``report`` print the text of their row. A sweep's ``--experiment`` names
a :data:`~repro.scenario.HARNESSES` row.

Every verb takes one path: registry entry → spec → run → render/check.
Each flag group is declared once, by the registry it fronts (HARNESSES
rows, CampaignSpec and ScaleSpec fields, the pool). A verb's builder
makes the spec and binds the run to it; it is the one place input is
judged: a rejected argument is one stderr line and exit 2, before
anything runs or is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple

from .campaign import campaign_report
from .campaign.spec import CAMPAIGN_EXPERIMENT, CANNED_CAMPAIGNS, CampaignSpec, describe_grid
from .chaos.plan import CANNED_PLANS, canned_plan
from .experiments import artefacts
from .experiments.runner import Table
from .freeride.registry import BEHAVIORS, UnknownBehaviorError
from .orchestrator import SweepGrid, open_run, start_run
from .orchestrator.workloads import UnknownWorkloadError, resolve_workload
from .scenario import HARNESSES, Scenario, run_scenario
from .simnet.shard import ScaleSpec
from .topo.model import PRESET_NAMES, PRESETS, preset

__all__ = ["main", "build_parser"]

#: What a verb's builder returns: the run, bound to its spec; it prints
#: and returns the exit status (None is 0).
Run = Callable[[], Optional[int]]


class _Parser(argparse.ArgumentParser):
    """argparse whose rejection is one stderr line, not a usage block."""

    def error(self, message: str) -> "typing.NoReturn":
        self.exit(2, f"{self.prog}: error: {message}\n")


# -- value parsers (argparse names each in its one-line rejection) ------------
def _csv(cast) -> "Callable[[str], tuple]":
    """``V1,V2,...`` → a tuple of ``cast`` values."""

    def parse(text: str) -> tuple:
        return tuple(cast(v) for v in text.split(",") if v != "")

    parse.__name__ = f"comma-separated {getattr(cast, '__name__', 'value')}"
    return parse


def _scalar(text: str):
    """int, then float, then the bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _pair(key, value, name: str) -> "Callable[[str], tuple]":
    """``KEY=VALUE`` → (``key(KEY)``, ``value(VALUE)``)."""

    def parse(text: str) -> tuple:
        k, sep, v = text.partition("=")
        if not sep or not k:
            raise ValueError(text)
        return key(k), value(v)

    parse.__name__ = name
    return parse


# -- flag tables: each group declared once -------------------------------------
#: The scenario verbs' flags, keyed as :meth:`Scenario.from_params` reads them.
_SCENARIO_FLAGS: "Dict[str, Dict[str, Any]]" = {
    "nodes": dict(type=int, help="population size"),
    "horizon": dict(type=float, help="run seconds"),
    "plan": dict(choices=CANNED_PLANS, help="canned timeline: none = no faults; smoke = "
                 "1 crash-restart + 1 partition; storm = seeded random fault mix; membership = "
                 "1 join + 2 leaves (a group split, then a dissolve, on 6 nodes)"),
    "heal_bound": dict(type=float, help="seconds after each fault heals within which "
                       "delivery must resume"),
    "messages": dict(type=int, help="anonymous messages queued per node"),
    "topology": dict(flag="--preset", dest="topology", choices=PRESET_NAMES, required=True,
                     help="preset (see `repro topo list`)"),
    "topology_seed": dict(type=int, default=0, help="preset sampler seed"),
    "deviant": dict(choices=BEHAVIORS, metavar="NAME", default="honest",
                    help="behaviour registry name to plant (sim only: exit 2 on live)"),
    "timer_scale": dict(type=float, default=1.0, help="misbehaviour timers x this factor"),
    "enforce_contract": dict(flag="--no-contract", dest="enforce_contract", action="store_false",
                             help="bypass the topology timer contract (the false-positive probe)"),
    "churn": dict(action="store_true", help="compile the model's diurnal churn trace onto the run"),
}

#: The worker-pool flags; each pool verb takes the ones it honours.
_POOL_FLAGS: "Dict[str, Dict[str, Any]]" = {
    "workers": dict(type=int, default=2, help="worker processes"),
    "serial": dict(action="store_true", help="run in-process without the worker pool"),
    "inject_crash": dict(type=int, default=0, metavar="K",
                         help="chaos-test: kill the first attempt of the first K pending cells"),
    "max_retries": dict(type=int, default=2, help="extra attempts per crashed cell"),
    "timeout": dict(type=float, help="wall-seconds before a worker counts as hung"),
}


def _add(p: argparse.ArgumentParser, table, names, defaults=None) -> "Tuple[str, ...]":
    """Add the ``names`` rows of ``table`` to ``p``; return their dests. A
    row may spell its ``flag``, a name may be ``(name, flag)``, and
    ``defaults`` (a registry row) overrides a row's default."""
    dests = []
    for name in names:
        name, flag = name if isinstance(name, tuple) else (name, None)
        kw = dict(table[name])
        spelled = kw.pop("flag", "--" + name.replace("_", "-"))
        if defaults and name in defaults and not kw.get("required"):
            kw["default"] = defaults[name]
        if kw.get("default") is not None and "action" not in kw:
            kw["help"] += " (default %(default)s)"
        dests.append(p.add_argument(flag or spelled, **kw).dest)
    return tuple(dests)


def _spec_flags(p: argparse.ArgumentParser, spec, spellings, skip=(), keep_defaults=True) -> None:
    """One flag per field of the dataclass ``spec``: a tuple field takes
    ``V1,V2,...``, a dict field repeated ``KEY=VALUE``. An unset flag
    keeps the field's default or, ``keep_defaults=False``, leaves the
    field to whatever the spec is built from."""
    hints, fields = typing.get_type_hints(spec), {}
    for f in dataclasses.fields(spec):
        if f.name in skip:
            continue
        kw = {"help": f"{spec.__name__}.{f.name}", **spellings.get(f.name, {})}
        flag = kw.pop("flag", "--" + f.name.replace("_", "-"))
        origin, args = typing.get_origin(hints[f.name]), typing.get_args(hints[f.name])
        if origin is dict:
            metavar = kw.setdefault("metavar", "KEY=VALUE")
            kw.update(action="append", default=[], type=_pair(*args, metavar))
            kw["help"] += "; repeatable"
        else:
            kw["default"] = f.default if keep_defaults else None
            kw["help"] += " (default %(default)s)" if keep_defaults else ""
            if origin is tuple:
                kw.update(type=_csv(args[0]), metavar="V1,V2,...")
            else:
                kw["type"] = args[0] if origin is typing.Union else hints[f.name]
        fields[f.name] = p.add_argument(flag, **kw).dest
    p.set_defaults(spec_fields=fields)


def _spec_values(args: argparse.Namespace) -> "Dict[str, Any]":
    """The fields :func:`_spec_flags` declared, as given (unset ones left out)."""
    values = {name: getattr(args, dest) for name, dest in args.spec_fields.items()}
    return {k: dict(v) if isinstance(v, list) else v for k, v in values.items() if v is not None}


def _pool(args: argparse.Namespace) -> "Dict[str, Any]":
    """The pool options a run records; ``--serial`` and ``--inject-crash``
    are run arguments, and exclusive."""
    if args.serial and args.inject_crash:
        raise ValueError("--inject-crash kills a worker process; it cannot be combined with --serial")
    return {k: getattr(args, k) for k in ("workers", "max_retries", "timeout") if hasattr(args, k)}


# -- the parser ----------------------------------------------------------------
#: Verbs that print one results row's text (exit 1 if its gate fails).
_ROW_VERBS = {"fig1": "figure1", "trace": "figure2", "fig3": "figure3",
              "measure": "figure3_empirical_point", "table1": "table1", "claims": "text_claims",
              "nash": "nash_analysis", "ablation": "ablation", "report": "full_report"}

#: What a clean live run leaves at zero: malformed connections or
#: records, frames no link can carry, node bugs caught at dispatch.
_UNCLEAN = ("live_inbound_rejected", "live_frames_rejected", "live_frames_dropped_oversize",
            "live_dispatch_errors")


def _live_ok(deliveries, evictions, errors, counters) -> bool:
    clean = not any(counters.get(name) for name in _UNCLEAN)
    return bool(deliveries) and not evictions and not errors and clean


def _show(text: str) -> Run:
    return lambda: print(text)


def _group(sub, name: str, help: str):
    return sub.add_parser(name, help=help).add_subparsers(dest=f"{name}_command", required=True)


def _scenario_verb(sub, name, harness, help, check, *names, substrates=True):
    """A verb that runs one scenario of ``harness`` per substrate."""
    p = sub.add_parser(name, help=help)
    if substrates:
        p.add_argument("--substrate", choices=("sim", "live", "both"), default="sim",
                       help="where it runs (default sim; 'both' runs the same scenario twice)")
    params = _add(p, _SCENARIO_FLAGS, names, HARNESSES[harness])
    p.add_argument("--seed", type=int, default=0, help="population, plan and traffic seed (default 0)")
    p.add_argument("--port-base", type=int, metavar="P",
                   help="live substrate: bind node i to port P+i (default: ephemeral ports)")
    p.add_argument("--check", action="store_true", help=check)
    p.set_defaults(build=_scenario, harness=harness, params=params,
                   passed=lambda outcome: outcome.ok, expect="invariant violation(s) above")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro", description="RAC (ICDCS 2013) reproduction - regenerate paper figures and tables"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, row in _ROW_VERBS.items():
        sub.add_parser(verb, help=artefacts.ARTEFACTS[row].claim).set_defaults(build=_row, row=row)
    results = sub.add_parser(
        "results", help="the committed results/*.txt artefacts: `list` the registry, `make` rows "
        "(rebuild and write their files), `check` rows (rebuild in memory, run their gates, diff "
        "pinned rows against results/; default: every pinned+fast row)")
    results.add_argument("action", choices=("list", "make", "check"))
    results.add_argument("names", nargs="*", metavar="NAME", help="registry rows")
    results.set_defaults(build=_results)

    sweep = _group(sub, "sweep", "parallel (config x seed) sweep campaigns with checkpoint/resume")
    run = sweep.add_parser("run", help="launch a new sweep campaign")
    run.add_argument("--run-dir", required=True, help="campaign directory (manifest, store, checkpoints)")
    run.add_argument("--experiment", required=True,
                     help="registered workload: a harness (" + ", ".join(HARNESSES) + ")")
    run.add_argument("--axis", action="append", required=True, metavar="NAME=V1,V2,...",
                     type=_pair(str, lambda raw: list(_csv(_scalar)(raw)), "NAME=V1,V2,..."),
                     help="swept parameter axis; repeatable")
    run.add_argument("--seeds", type=_csv(int), default=(0,), help="comma-separated seed list (default: 0)")
    run.add_argument("--base", action="append", default=[], type=_pair(str, _scalar, "NAME=VALUE"),
                     metavar="NAME=VALUE", help="constant parameter shared by every cell; repeatable")
    run.add_argument("--checkpoint-interval", type=float, metavar="SIM_SECONDS",
                     help="snapshot long runs every N sim-seconds (default: off)")
    _add(run, _POOL_FLAGS, _POOL_FLAGS)
    run.set_defaults(build=_sweep_run)
    resume = sweep.add_parser("resume", help="continue an interrupted campaign")
    resume.add_argument("--workers", type=int, help="override manifest worker count")
    status = sweep.add_parser("status", help="progress of a campaign")
    aggregate = sweep.add_parser("aggregate", help="summarize a campaign's result store")
    aggregate.add_argument("--metric", required=True, help="metric name to aggregate")
    aggregate.add_argument("--by", default="seed", help="group rows by this parameter (default: seed)")
    for p, build in ((resume, _sweep_resume), (status, _sweep_status), (aggregate, _sweep_aggregate)):
        p.add_argument("--run-dir", required=True)
        p.set_defaults(build=build)

    live = _group(sub, "live", "asyncio runtime: RAC nodes over real TCP sockets")
    demo = _scenario_verb(
        live, "demo", "live", "run a live cluster on localhost and report",
        "exit nonzero unless >=1 delivery, 0 evictions and 0 rejected or unsendable frames "
        "(CI smoke contract)",
        "nodes", ("horizon", "--duration"), "messages", substrates=False,
    )
    demo.add_argument("--subprocess", action="store_true",
                      help="one worker process per node instead of asyncio tasks")
    demo.set_defaults(passed=lambda o: _live_ok(o.deliveries, o.evictions, o.errors, o.counters),
                      expect="expected >=1 delivery, 0 evictions, 0 errors, 0 of " + " ".join(_UNCLEAN))

    chaos = _group(sub, "chaos", "scripted fault plans with invariant-checked runs on sim or live")
    invariant_check = "exit nonzero on any invariant violation (CI smoke contract)"
    _scenario_verb(chaos, "run", "chaos", "play one fault plan on a substrate and judge the invariants",
                   invariant_check, "nodes", "horizon", "plan", "heal_bound")
    plan = chaos.add_parser("plan", help="print a plan's timeline and fingerprint")
    plan.add_argument("--plan", choices=CANNED_PLANS, default="smoke")
    plan.add_argument("--nodes", type=int, default=6)
    plan.add_argument("--horizon", type=float, default=18.0)
    plan.add_argument("--seed", type=int, default=0)
    plan.set_defaults(build=lambda a: _show(canned_plan(a.plan, a.nodes, a.horizon, a.seed).render()))

    campaign = _group(sub, "campaign", "adversarial matrix: strategies x fault plans x loss points, "
                      "scored into an accountability frontier")
    crun = campaign.add_parser("run", help="expand a campaign spec and run it on the pool")
    crun.add_argument("--run-dir", required=True, help="campaign directory (manifest, store)")
    crun.add_argument("--spec", choices=CANNED_CAMPAIGNS, help="start from a canned matrix "
                      "(repro.campaign.CANNED_CAMPAIGNS); explicit field flags override its fields")
    spellings = {"loss_points": "--loss", "group_sizes": "--nodes",
                 "coalition_fractions": "--coalition-fraction"}
    _spec_flags(crun, CampaignSpec, {name: dict(flag=flag) for name, flag in spellings.items()},
                skip=("base",), keep_defaults=False)
    crun.add_argument("--coalition-size", type=_csv(int), metavar="V1,V2,...",
                      help="coalition member counts; converted to fractions against the single "
                      "--nodes value (mutually exclusive with --coalition-fraction)")
    _add(crun, _POOL_FLAGS, _POOL_FLAGS)
    crun.set_defaults(build=_campaign_run)
    creport = campaign.add_parser("report", help="fold the result store into the accountability frontier")
    creport.add_argument("--run-dir", required=True)
    creport.add_argument("--out", help="also write the frontier to this file")
    creport.add_argument("--check", action="store_true", help="exit nonzero unless the baseline is "
                         "sound and no cell anywhere evicted an honest node (CI smoke contract)")
    creport.set_defaults(build=_campaign_report)

    topo = _group(sub, "topo", "WAN topology models: fingerprinted latency/bandwidth presets "
                  "played on either substrate")
    topo.add_parser("list", help="list the canned topology presets").set_defaults(build=lambda a: _show(
        "\n".join(f"{name:16s} {line}" for name, (_, line) in PRESETS.items())))
    tshow = topo.add_parser("show", help="describe one preset (fingerprint, classes)")
    tshow.add_argument("--preset", required=True, choices=PRESET_NAMES, help="preset name")
    tshow.add_argument("--nodes", type=int, default=10, help="population size (default 10)")
    tshow.add_argument("--seed", type=int, default=0, help="preset sampler seed (default 0)")
    tshow.add_argument("--matrix", action="store_true", help="also print the full latency matrix")
    tshow.set_defaults(build=_topo_show)
    _scenario_verb(topo, "run", "topo", "play one topology on a substrate and judge the invariants",
                   invariant_check, "topology", "nodes", "horizon", "topology_seed", "deviant",
                   "timer_scale", "enforce_contract", "churn")
    topo.add_parser("verify", help="lan-equivalence gate: the lan preset must be byte-identical to "
                    "running with no topology at all").set_defaults(build=lambda a: _topo_verify)

    scale = _group(sub, "scale", "group-sharded parallel simulation: one deterministic "
                   "sub-simulator per group bundle, merged at epoch barriers")
    spellings = {
        "num_shards": dict(flag="--shards", help="sub-simulators"),
        "deviants": dict(flag="--deviant", metavar="INDEX=BEHAVIOR",
                         help="plant a freeride behaviour at a 1-based creation index"),
    }
    srun = scale.add_parser("run", help="run a sharded simulation on the worker pool")
    srun.add_argument("--run-dir", required=True, help="run directory (barriers, snapshots, store)")
    sverify = scale.add_parser("verify", help="serial sharded run + monolithic run, compared for "
                               "equivalence")
    sverify.add_argument("--run-dir", help="run directory (default: a fresh temp dir)")
    for p in (srun, sverify):
        _spec_flags(p, ScaleSpec, spellings, skip=("config", "coalition", "plan"))
    _add(srun, _POOL_FLAGS, ("workers", "serial", "inject_crash"))
    srun.add_argument("--verify", action="store_true",
                      help="also run the monolithic simulation and assert outcome equivalence")
    srun.set_defaults(build=_scale)
    sverify.set_defaults(build=_scale, serial=True, inject_crash=0, verify=True)
    return parser


# -- main: parse, build the spec (the one place input is judged), run ----------
def main(argv: "Optional[List[str]]" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a flag argparse refused in one stderr line
        return exc.code
    try:
        run = args.build(args)
    except (UnknownBehaviorError, UnknownWorkloadError, ValueError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    try:
        return run() or 0
    except BrokenPipeError:  # piping into `head` closes stdout early
        return 0


# -- builders: flags → spec → the run bound to it ------------------------------
def _row(args: argparse.Namespace) -> Run:
    def run() -> int:
        text, failures = artefacts.show(args.row)
        print(text)
        if failures:
            print("\n".join(failures), file=sys.stderr)
        return 1 if failures else 0

    return run


def _results(args: argparse.Namespace) -> Run:
    unknown = sorted(set(args.names) - set(artefacts.ARTEFACTS))
    if unknown or (args.action == "make" and not args.names):
        raise ValueError(f"results {args.action}: name rows of `repro results list`, not {unknown}")

    def run() -> int:
        if args.action == "list":
            print(artefacts.render_index())
            return 0
        if args.action == "make":
            failures = artefacts.make(args.names)
            print("wrote", *(file for name in args.names for file in artefacts.ARTEFACTS[name].files))
        else:
            failures = artefacts.check(args.names or None)
        print("\n".join(failures + [f"results {args.action} " + ("FAILED" if failures else "OK")]))
        return 1 if failures else 0

    return run


def _scenarios(args: argparse.Namespace):
    """(substrate, Scenario) of the verb's harness per requested
    substrate; a field a substrate would drop is refused before any run."""
    chosen = getattr(args, "substrate", HARNESSES[args.harness].get("substrate"))
    params = {dest: getattr(args, dest) for dest in args.params if getattr(args, dest) is not None}
    built = []
    for substrate in ("sim", "live") if chosen == "both" else (chosen,):
        scenario = Scenario.from_params({**params, "substrate": substrate}, args.seed, args.harness)
        scenario.check_substrate(substrate, getattr(args, "subprocess", False))
        built.append((substrate, scenario))
    return built


def _verdict(args: argparse.Namespace, failed: bool) -> int:
    if args.check and failed:
        print(f"{args.command} run FAILED: {args.expect}")
        return 1
    return 0


def _scenario(args: argparse.Namespace) -> Run:
    scenarios = _scenarios(args)

    def run() -> int:
        failed = False
        for substrate, scenario in scenarios:
            outcome = run_scenario(scenario, substrate, port_base=args.port_base,
                                   processes=getattr(args, "subprocess", False))
            print(outcome.render())
            failed = failed or not args.passed(outcome)
        return _verdict(args, failed)

    return run


def _finished(status) -> int:
    print(status.render())
    return 0 if status.failed == 0 else 1


def _sweep_run(args: argparse.Namespace) -> Run:
    resolve_workload(args.experiment)
    grid = SweepGrid(args.experiment, dict(args.axis), seeds=list(args.seeds), base_params=dict(args.base))
    sweep = start_run(args.run_dir, grid, {"checkpoint_interval": args.checkpoint_interval, **_pool(args)})
    return lambda: _finished(sweep.run(serial=args.serial, inject_crash=args.inject_crash))


def _sweep_resume(args: argparse.Namespace) -> Run:
    sweep = open_run(args.run_dir, workers=args.workers)
    return lambda: _finished(sweep.run())


def _sweep_status(args: argparse.Namespace) -> Run:
    sweep = open_run(args.run_dir)
    head = describe_grid(sweep.grid) + "\n" if sweep.grid.experiment == CAMPAIGN_EXPERIMENT else ""
    return lambda: print(head + sweep.status().render())


def _sweep_aggregate(args: argparse.Namespace) -> Run:
    store, metric, by = open_run(args.run_dir).store, args.metric, args.by

    def run() -> int:
        rows, skipped = store.aggregate(metric, by=by, with_skipped=True)
        if not rows:
            print(f"no successful records with metric {metric!r}")
            if skipped:
                print(f"({skipped} successful record(s) lack that metric)")
            return 1
        table = Table(headers=[by, "n", "mean", "min", "max"], title=f"sweep aggregate: {metric} by {by}")
        for row in rows:
            table.add_row(row[by], row["n"], *(f"{row[k]:.6g}" for k in ("mean", "min", "max")))
        print(table.render())
        if skipped:
            print(f"skipped {skipped} successful record(s) missing metric {metric!r}")
        return 0

    return run


def _campaign_run(args: argparse.Namespace) -> Run:
    base = CANNED_CAMPAIGNS[args.spec]() if args.spec else CampaignSpec()
    fields = _spec_values(args)
    if args.coalition_size is not None:
        if "coalition_fractions" in fields:
            raise ValueError("pass --coalition-fraction or --coalition-size, not both")
        nodes = fields.get("group_sizes", base.group_sizes)[0]  # one size: CampaignSpec checks it
        fields["coalition_fractions"] = tuple(size / nodes for size in args.coalition_size)
    spec = dataclasses.replace(base, **fields)
    sweep = start_run(args.run_dir, spec.to_grid(), _pool(args))

    def run() -> int:
        print(spec.describe())
        final = sweep.run(serial=args.serial, inject_crash=args.inject_crash)
        print(final.render())
        return 0 if final.failed == 0 and final.pending == 0 else 1

    return run


def _campaign_report(args: argparse.Namespace) -> Run:
    description, report = campaign_report(args.run_dir)

    def run() -> int:
        text = description + "\n\n" + report.render()
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"\nwrote {args.out}")
        failures = report.failures() if args.check else []
        if failures:
            print("campaign check FAILED: " + "; ".join(failures))
        return 1 if failures else 0

    return run


def _topo_show(args: argparse.Namespace) -> Run:
    model = preset(args.preset, args.nodes, seed=args.seed)
    return _show(model.describe() + ("\n\n" + model.render_matrix() if args.matrix else ""))


def _topo_verify() -> int:
    from .topo.run import lan_equivalence

    plain, lan_digest = lan_equivalence()
    if plain != lan_digest:
        print("topo verify FAILED: lan preset diverged from the bare star\n"
              f"  no topology: {plain}\n  lan preset : {lan_digest}")
        return 1
    print(f"topo verify OK: lan preset byte-identical to the bare star ({plain[:16]})")
    return 0


def _scale(args: argparse.Namespace) -> Run:
    """``scale run``, or ``scale verify``: the same run, serial, always
    compared with the monolithic simulation."""
    import tempfile

    from .orchestrator.sharded import run_sharded, verify_sharded

    spec, pool = ScaleSpec(**_spec_values(args)), _pool(args)

    def run() -> int:
        run_dir = args.run_dir or tempfile.mkdtemp(prefix="rac_scale_verify_")
        outcome = run_sharded(spec, run_dir, serial=args.serial, inject_crash=args.inject_crash, **pool)
        print(outcome.render())
        if not args.verify:
            return 0
        report = verify_sharded(outcome)
        print(report.render())
        return 0 if report.equivalent else 1

    return run


if __name__ == "__main__":
    sys.exit(main())
