"""CLI surface of the supervised layer: --timeout/--retries/--resume/
--allow-partial, exit-2 hardening, and the supervision summary lines."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.mark.parametrize("command", [
    ["campaign", "is", "A"],
    ["faults", "is", "A", "--offline-cores", "1"],
    ["experiment", "fig2"],
    ["sweep", "noise"],
])
def test_exec_commands_accept_supervision_flags(command):
    args = build_parser().parse_args(
        command + ["--timeout", "30", "--retries", "2",
                   "--allow-partial", "--resume"]
    )
    assert args.timeout == 30.0
    assert args.retries == 2
    assert args.allow_partial is True
    assert args.resume is True


@pytest.mark.parametrize("flags", [
    ["--timeout", "0"],
    ["--timeout", "-3"],
    ["--timeout", "nan"],
    ["--timeout", "inf"],
    ["--retries", "-1"],
    ["--retries", "two"],
])
def test_invalid_supervision_values_exit_2(flags):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["campaign", "is", "A"] + flags)
    assert excinfo.value.code == 2


def test_resume_with_no_cache_exits_2(capsys):
    rc = main(["campaign", "is", "A", "-n", "2", "--resume", "--no-cache"])
    assert rc == 2
    assert "--resume needs the result cache" in capsys.readouterr().err


def test_resume_without_journal_exits_2(capsys):
    rc = main(["campaign", "is", "A", "-n", "2", "--resume"])
    assert rc == 2
    assert "no journal to resume from" in capsys.readouterr().err


def test_resume_replays_and_reports(capsys):
    base = ["campaign", "is", "A", "-n", "3", "--seed", "4", "--jobs", "1"]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "3/3 runs from cache" in out
    assert "resumed: 3 run(s) replayed from the journal" in out


def test_faults_resume_without_journal_exits_2(capsys):
    rc = main(["faults", "is", "A", "--offline-cores", "1", "-n", "2",
               "--resume"])
    assert rc == 2
    assert "no journal to resume from" in capsys.readouterr().err


def test_campaign_accepts_timeout_and_retries_end_to_end(capsys):
    assert main(["campaign", "is", "A", "-n", "2", "--jobs", "1",
                 "--timeout", "120", "--retries", "1", "--no-cache"]) == 0
    assert "2 runs" in capsys.readouterr().out


def test_default_flags_leave_output_unchanged(capsys):
    # No supervision flag set: the summary must not grow extra lines (the
    # CI determinism gate greps this output).
    assert main(["campaign", "is", "A", "-n", "2", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "retried" not in out
    assert "resumed" not in out
    assert "partial" not in out


def test_faults_campaign_does_not_count_holes_as_completed(capsys, monkeypatch):
    import repro.experiments.runner as runner

    real = runner._execute_spec

    def fail_run_one(spec):
        if spec.run_index == 1:
            raise ValueError("run 1 always fails")
        return real(spec)

    monkeypatch.setattr(runner, "_execute_spec", fail_run_one)
    rc = main(["faults", "is", "A", "--offline-cores", "1", "-n", "3",
               "--jobs", "1", "--allow-partial", "--retries", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "  completed 2/3" in out
    assert "partial: 1 hole(s) at run indices [1]" in out
