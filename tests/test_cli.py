"""Tests for the hpl-repro command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "ep", "A", "--regime", "hpl"])
    assert args.command == "run"
    assert args.bench == "ep" and args.klass == "A" and args.regime == "hpl"


def test_parser_rejects_bad_regime():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "ep", "A", "--regime", "turbo"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "tab2" in out and "ep.A.8" in out


def test_topology_command(capsys):
    assert main(["topology"]) == 0
    out = capsys.readouterr().out
    assert "power6-js22" in out
    assert "cpu7" in out
    assert "L2" in out


def test_run_command(capsys):
    assert main(["run", "is", "A", "--regime", "hpl", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out
    assert "cpu-migrations" in out


def test_campaign_command(capsys):
    assert main(["campaign", "is", "A", "--regime", "hpl", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 runs" in out
    assert "var" in out


def test_experiment_command(capsys):
    assert main(["experiment", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_sweep_command(capsys):
    assert main(["sweep", "noise", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "Sweep" in out and "stock" in out and "hpl" in out


def test_sweep_rejects_unknown(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(["sweep", "voltage"])


def test_list_includes_extension_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "multinode" in out and "decompose" in out


def test_export_command(tmp_path, capsys):
    assert main(["export", str(tmp_path), "-n", "3", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "figure2.svg" in out
    assert (tmp_path / "figure3a.svg").exists()


# ------------------------------------------------------ argument hardening

def test_parser_rejects_negative_runs(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["campaign", "is", "A", "-n", "-3"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_parser_rejects_zero_runs():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["campaign", "is", "A", "-n", "0"])
    assert exc.value.code == 2


def test_parser_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "is", "A", "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_campaign_unwritable_provenance(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "prov.jsonl"
    rc = main(["campaign", "is", "A", "-n", "2", "--provenance", str(target)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: cannot write --provenance" in err
    assert err.count("\n") == 1  # a one-line diagnosis, not a traceback


def test_trace_unwritable_output(tmp_path, capsys):
    rc = main(["trace", "is", "A", "-o", str(tmp_path)])  # a directory
    assert rc == 2
    assert "error: cannot write -o" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["stat"],
        ["latency"],
        ["trace"],
        ["campaign"],
        ["faults"],
        ["faults", "--cluster"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_unknown_benchmark_exits_2(argv, capsys):
    """Every single-benchmark subcommand rejects an unknown benchmark with
    a one-line error and exit 2, before any simulation runs."""
    rc = main(argv[:1] + ["zz", "A"] + argv[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown benchmark" in err
    assert "Traceback" not in err and err.count("\n") == 1


# ------------------------------------------------------------ faults command

def test_faults_parser_defaults():
    args = build_parser().parse_args(["faults", "is", "A"])
    assert args.command == "faults"
    assert args.offline_cores == 0
    assert args.ft_mode == "abort"


def test_faults_offline_cores(capsys):
    rc = main(["faults", "is", "A", "--regime", "hpl", "--seed", "1",
               "--offline-cores", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault plan 'cli'" in out
    assert "cpu_offline" in out
    assert "completed       : yes" in out


def test_faults_cannot_offline_every_core(capsys):
    rc = main(["faults", "is", "A", "--offline-cores", "4"])
    assert rc == 2
    assert "cannot offline" in capsys.readouterr().err


def test_faults_run_that_cannot_finish_fails_cleanly(capsys):
    # Pinned ranks 6 and 7 park on CPUs that never come back.
    rc = main(["faults", "is", "A", "--regime", "pinned", "--offline-cores", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("is.A.8 under pinned (seed 0): FAILED\n")
    assert "did not finish" in captured.out
    assert "Traceback" not in captured.err


def test_faults_crash_rank_restart(capsys):
    rc = main(["faults", "is", "A", "--crash-rank", "2",
               "--ft-mode", "restart", "--checkpoint-every", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank crashes    : 1" in out
    assert "restarts        : 1" in out
    assert "completed       : yes" in out


def test_faults_watchdog_reports(capsys):
    rc = main(["faults", "is", "A", "--regime", "hpl", "--watchdog"])
    assert rc == 0
    assert "watchdog:" in capsys.readouterr().out
