"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def rejected(capsys, argv) -> str:
    """Run ``argv``; it must be refused with exit 2 and one stderr line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err
    return err


#: Bad inputs that once ended in a traceback; {run_dir} is a fresh path.
BAD_INPUTS = [
    ["scale", "verify", "--run-dir", "{run_dir}", "--deviant", "x=forward-dropper"],
    ["scale", "verify", "--run-dir", "{run_dir}", "--deviant", "2=bogus"],
    ["chaos", "plan", "--nodes", "1"],
    ["chaos", "plan", "--horizon", "-1"],
    ["fig3", "--group-size", "0"],
    ["table1", "--nodes", "0"],
    ["trace", "--population", "1"],
    ["measure", "--nodes", "1"],
    ["sweep", "run", "--run-dir", "{run_dir}", "--experiment", "protocol", "--axis", "nodes=4",
     "--seeds", ","],
    ["campaign", "run", "--run-dir", "{run_dir}", "--spec", "smoke", "--loss", "abc"],
]


@pytest.mark.parametrize(
    "argv", BAD_INPUTS, ids=lambda argv: " ".join(a for a in argv if a not in ("--run-dir", "{run_dir}"))
)
def test_bad_input_is_one_stderr_line_and_exit_2(tmp_path, capsys, argv):
    run_dir = tmp_path / "run"
    rejected(capsys, [arg.format(run_dir=run_dir) for arg in argv])
    assert not run_dir.exists()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_fig3_options(self):
        args = build_parser().parse_args(["fig3", "--group-size", "500", "--relays", "3"])
        assert args.group_size == 500 and args.relays == 3 and args.rings == 7


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Dissent v1" in out and "100000" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "RAC-1000" in out

    def test_fig3_custom_group(self, capsys):
        assert main(["fig3", "--group-size", "500"]) == 0
        assert "RAC-500" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "5.8e-1020" in capsys.readouterr().out

    def test_claims_exit_code_reflects_holding(self, capsys):
        assert main(["claims"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_nash(self, capsys):
        assert main(["nash"]) == 0
        assert "Theorem 1 (Nash equilibrium): holds" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "Ablation: relays L" in out and "Ablation: group size G" in out
        assert "L=1, R=15, G=1000" in out  # the recommended configuration

    def test_trace(self, capsys):
        assert main(["trace", "--population", "8", "--seed", "7"]) == 0
        assert "Step 3" in capsys.readouterr().out


class TestResults:
    def test_list_names_every_row_with_its_files(self, capsys):
        from repro.experiments.artefacts import ARTEFACTS

        assert main(["results", "list"]) == 0
        out = capsys.readouterr().out
        for row in ARTEFACTS.values():
            assert f"`{row.name}`" in out and all(file in out for file in row.files)

    def test_check_one_row_against_the_committed_file(self, capsys):
        assert main(["results", "check", "table1"]) == 0
        assert "results check OK" in capsys.readouterr().out

    def test_unknown_row_is_rejected_before_building_anything(self, capsys):
        assert "tabel1" in rejected(capsys, ["results", "make", "tabel1"])


class TestSweep:
    def test_run_requires_an_axis(self, tmp_path, capsys):
        argv = ["sweep", "run", "--run-dir", str(tmp_path / "x"), "--experiment", "protocol"]
        assert "--axis" in rejected(capsys, argv)

    def test_serial_run_status_aggregate(self, tmp_path, capsys, cheap_point):
        run_dir = str(tmp_path / "camp")
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "--run-dir",
                    run_dir,
                    "--experiment",
                    cheap_point,
                    "--axis",
                    "nodes=100,1000",
                    "--seeds",
                    "0,1",
                    "--serial",
                ]
            )
            == 0
        )
        assert "4/4 cells ok" in capsys.readouterr().out

        assert main(["sweep", "status", "--run-dir", run_dir]) == 0
        assert "4/4 cells ok, 0 failed, 0 pending" in capsys.readouterr().out

        assert (
            main(
                [
                    "sweep",
                    "aggregate",
                    "--run-dir",
                    run_dir,
                    "--metric",
                    "square",
                    "--by",
                    "nodes",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "square by nodes" in out and "1e+06" in out

        # Resuming a finished campaign is a no-op that still succeeds.
        assert main(["sweep", "resume", "--run-dir", run_dir]) == 0
        assert "4/4 cells ok" in capsys.readouterr().out

    def test_a_second_different_run_on_a_directory_is_refused(self, tmp_path, capsys, cheap_point):
        run_dir = tmp_path / "camp"
        run = ["sweep", "run", "--run-dir", str(run_dir), "--experiment", cheap_point, "--serial"]
        assert main([*run, "--axis", "nodes=100,1000"]) == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
        assert set(before) == {"sweep.json", "results.jsonl"}
        capsys.readouterr()
        assert main([*run, "--axis", "nodes=7"]) == 2  # before any cell runs
        err = capsys.readouterr().err
        assert "already holds a different sweep" in err and "fresh --run-dir" in err
        assert before == {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}

    @pytest.mark.parametrize(
        "verb", [["sweep", "status"], ["sweep", "resume"], ["sweep", "aggregate", "--metric", "m"], ["campaign", "report"]]
    )
    def test_a_missing_run_directory_is_one_line_and_exit_2(self, tmp_path, capsys, verb):
        assert main([*verb, "--run-dir", str(tmp_path / "nope")]) == 2
        captured = capsys.readouterr()
        assert "sweep.json not found" in captured.err and "Traceback" not in captured.err
        (tmp_path / "empty").mkdir()
        assert main([*verb, "--run-dir", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize(
        "command",
        [["sweep", "run", "--experiment", "protocol", "--axis", "nodes=4"], ["campaign", "run", "--spec", "smoke"]],
    )
    def test_serial_with_inject_crash_is_a_usage_error(self, tmp_path, capsys, command):
        argv = [*command, "--run-dir", str(tmp_path / "x"), "--serial", "--inject-crash", "1"]
        assert "--serial" in rejected(capsys, argv)
        assert not (tmp_path / "x").exists()

    def test_aggregate_unknown_metric_fails(self, tmp_path, capsys, cheap_point):
        run_dir = str(tmp_path / "camp")
        main(
            [
                "sweep", "run", "--run-dir", run_dir,
                "--experiment", cheap_point, "--axis", "nodes=100", "--serial",
            ]
        )
        capsys.readouterr()
        assert main(["sweep", "aggregate", "--run-dir", run_dir, "--metric", "nope"]) == 1

    def test_run_unknown_workload_names_the_registry(self, tmp_path, capsys):
        message = rejected(
            capsys,
            [
                "sweep", "run", "--run-dir", str(tmp_path / "x"),
                "--experiment", "portocol", "--axis", "nodes=4",
            ],
        )
        assert "portocol" in message and "protocol" in message


class TestCampaign:
    def test_unknown_strategy_rejected_before_running(self, tmp_path, capsys):
        argv = ["campaign", "run", "--run-dir", str(tmp_path / "x"), "--strategies", "sleepy-relay", "--serial"]
        assert "sleepy-relay" in rejected(capsys, argv)
        assert not (tmp_path / "x").exists()

    def test_serial_run_status_report_check(self, tmp_path, capsys):
        run_dir = str(tmp_path / "camp")
        assert (
            main(
                [
                    "campaign", "run", "--run-dir", run_dir,
                    "--strategies", "no-noise", "--plans", "none",
                    "--loss", "0", "--nodes", "10", "--seeds", "0",
                    "--horizon", "6", "--serial",
                ]
            )
            == 0
        )
        assert "1/1 cells ok" in capsys.readouterr().out

        # `sweep status` on a campaign directory names the matrix too.
        assert main(["sweep", "status", "--run-dir", run_dir]) == 0
        out = capsys.readouterr().out
        assert "1 strategies" in out and "1/1 cells ok" in out

        report_path = str(tmp_path / "frontier.txt")
        assert (
            main(
                [
                    "campaign", "report", "--run-dir", run_dir,
                    "--out", report_path, "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "accountability frontier" in out and "SOUND" in out
        with open(report_path, encoding="utf-8") as fh:
            assert "no-noise" in fh.read()

    def test_coalition_fraction_and_size_are_mutually_exclusive(self, tmp_path, capsys):
        argv = [
            "campaign", "run", "--run-dir", str(tmp_path / "x"),
            "--coalition-fraction", "0.25", "--coalition-size", "3", "--serial",
        ]
        assert "not both" in rejected(capsys, argv)

    def test_coalition_size_needs_a_single_group_size(self, tmp_path, capsys):
        argv = [
            "campaign", "run", "--run-dir", str(tmp_path / "x"),
            "--nodes", "12,16", "--coalition-size", "3", "--serial",
        ]
        assert "exactly one" in rejected(capsys, argv)

    def test_coalition_fraction_on_unilateral_strategy_rejected(self, tmp_path, capsys):
        argv = [
            "campaign", "run", "--run-dir", str(tmp_path / "x"),
            "--strategies", "silent-relay", "--coalition-fraction", "0.25", "--serial",
        ]
        assert "not a coordinated behaviour" in rejected(capsys, argv)

    def test_coalition_size_run_and_frontier_report(self, tmp_path, capsys):
        # A minimal real coalition cell: at the config default f=0.1
        # and G=20 the quorum is floor(0.1*20)+1 = 3, so a framing
        # *pair* sits exactly at the f*G bound — undetectable and
        # harmless, the cell is cheap and the --check gate must pass;
        # the report must carry the coalition frontier section.
        run_dir = str(tmp_path / "camp")
        assert (
            main(
                [
                    "campaign", "run", "--run-dir", run_dir,
                    "--strategies", "coalition-frame", "--plans", "none",
                    "--loss", "0", "--nodes", "20", "--seeds", "0",
                    "--coalition-size", "2", "--shuffle-rounds", "4",
                    "--horizon", "8", "--serial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1/1 cells ok" in out
        assert "coalition fractions" in out  # spec.describe() names the axis

        report_path = str(tmp_path / "frontier.txt")
        assert (
            main(
                [
                    "campaign", "report", "--run-dir", run_dir,
                    "--out", report_path, "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "coalition frontier" in out
        assert "paper bound f*G" in out
        assert "sub-f*G cells" in out and "all SOUND" in out
        with open(report_path, encoding="utf-8") as fh:
            text = fh.read()
        assert "coalition-frame" in text and "2/20" in text

    def test_report_on_plain_sweep_dir_is_a_clear_error(self, tmp_path, capsys, cheap_point):
        run_dir = str(tmp_path / "sweep")
        main(
            [
                "sweep", "run", "--run-dir", run_dir,
                "--experiment", cheap_point, "--axis", "nodes=100", "--serial",
            ]
        )
        assert main(["campaign", "report", "--run-dir", run_dir]) == 2
        assert "holds a plain sweep, not a campaign" in capsys.readouterr().err


class TestLive:
    def test_demo_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["live"])

    def test_demo_defaults(self):
        # An unset flag is the live harness row's value.
        from repro.scenario import HARNESSES

        args = build_parser().parse_args(["live", "demo"])
        row = HARNESSES["live"]
        assert (args.nodes, args.duration, args.messages) == (row["nodes"], row["horizon"], row["messages"])
        assert args.port_base is None and not args.subprocess and not args.check

    def test_demo_options(self):
        args = build_parser().parse_args(
            ["live", "demo", "--nodes", "4", "--duration", "2.5", "--port-base", "7100", "--check"]
        )
        assert args.nodes == 4 and args.duration == 2.5
        assert args.port_base == 7100 and args.check

    def test_demo_runs_a_small_cluster(self, capsys):
        assert main(["live", "demo", "--nodes", "3", "--duration", "2", "--messages", "1"]) == 0
        out = capsys.readouterr().out
        assert "live run [live]: 3 nodes" in out
        assert "deliveries" in out

    def test_demo_check_passes_on_healthy_run(self, capsys):
        assert (
            main(["live", "demo", "--nodes", "3", "--duration", "2", "--messages", "1", "--check"])
            == 0
        )
        assert "FAILED" not in capsys.readouterr().out

    def test_demo_check_fails_on_a_counter_a_clean_run_leaves_at_zero(self, capsys, monkeypatch):
        from repro.live.cluster import LiveReport

        counted = LiveReport.counters
        monkeypatch.setattr(
            LiveReport, "counters", lambda self: {**counted(self), "live_inbound_rejected": 1}
        )
        argv = ["live", "demo", "--nodes", "3", "--duration", "2", "--messages", "1"]
        assert main(argv) == 0
        assert main(argv + ["--check"]) == 1
        assert "live_inbound_rejected" in capsys.readouterr().out.split("FAILED")[-1]


class TestScale:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["scale", "run", "--run-dir", "/tmp/x"])
        assert args.nodes == 64 and args.shards == 2 and args.workers == 2
        assert args.epoch == 1.0 and not args.serial and not args.verify

    def test_deviant_flag_requires_pair(self, tmp_path, capsys):
        argv = ["scale", "run", "--run-dir", str(tmp_path / "x"), "--deviant", "silent-relay"]
        assert "INDEX=BEHAVIOR" in rejected(capsys, argv)

    def test_verify_reports_equivalence(self, tmp_path, capsys):
        code = main(
            [
                "scale", "verify",
                "--run-dir", str(tmp_path / "run"),
                "--nodes", "24", "--shards", "2", "--seed", "3", "--horizon", "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verdict:    EQUIVALENT" in out
        assert "merged fingerprint:" in out

    def test_profile_writes_per_shard_dumps_and_merged_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(
            [
                "--profile", "scale", "run",
                "--run-dir", str(run_dir),
                "--nodes", "24", "--shards", "2", "--seed", "3",
                "--horizon", "0.5", "--epoch", "0.5", "--serial",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "merged profile over 2 shards" in out
        assert (run_dir / "profile" / "shard000.prof").exists()
        assert (run_dir / "profile" / "shard001.prof").exists()
        assert (run_dir / "profile" / "shard000.epoch000.prof").exists()


class TestTopo:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["topo", "run", "--preset", "wan-king"])
        assert args.substrate == "sim"
        assert args.nodes == 10
        assert args.timer_scale == pytest.approx(1.0)

    def test_list_names_every_preset(self, capsys):
        assert main(["topo", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("lan", "wan-king", "hetero-access", "planet-diurnal"):
            assert name in out

    def test_list_describes_every_registered_preset(self, capsys):
        from repro.topo.model import PRESETS

        assert main(["topo", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(PRESETS)
        for line, (_, description) in zip(lines, PRESETS.values()):
            assert description and line.endswith(description)

    def test_chaos_run_defaults_to_its_harness_row(self):
        from repro.scenario import HARNESSES

        args = build_parser().parse_args(["chaos", "run"])
        row = HARNESSES["chaos"]
        assert (args.nodes, args.horizon, args.plan) == (row["nodes"], row["horizon"], row["plan"])

    def test_show_prints_matrix_and_fingerprint(self, capsys):
        assert main(["topo", "show", "--preset", "wan-king", "--nodes", "4", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "slot" in out

    def test_verify_reports_lan_equivalence(self, capsys):
        assert main(["topo", "verify"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_sim_with_check_passes_on_wan(self, capsys):
        code = main(
            [
                "topo", "run", "--preset", "wan-king", "--nodes", "6",
                "--horizon", "6", "--check",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "wan-king" in out
