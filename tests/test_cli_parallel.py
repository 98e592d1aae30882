"""CLI surface of the parallel engine: --jobs, --no-cache, cache, faults -n."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI-invoked campaigns from touching the repo's .repro-cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_parser_accepts_jobs_and_no_cache():
    args = build_parser().parse_args(
        ["campaign", "is", "A", "-n", "4", "--jobs", "2", "--no-cache"]
    )
    assert args.jobs == 2
    assert args.use_cache is False


def test_parser_rejects_zero_jobs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "is", "A", "--jobs", "0"])


def test_campaign_jobs_byte_identical_provenance(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(["campaign", "is", "A", "-n", "4", "--seed", "3", "--jobs", "1",
                 "--no-cache", "--provenance", str(serial)]) == 0
    assert main(["campaign", "is", "A", "-n", "4", "--seed", "3", "--jobs", "2",
                 "--no-cache", "--provenance", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    # Execution metadata lives in the sidecar, not the records.
    assert (tmp_path / "serial.jsonl.meta.json").exists()
    out = capsys.readouterr().out
    assert "2 worker(s)" in out


def test_campaign_cache_summary_line(capsys):
    args = ["campaign", "is", "A", "-n", "3", "--seed", "5", "--jobs", "1"]
    assert main(args) == 0
    assert "0/3 runs from cache" in capsys.readouterr().out
    assert main(args) == 0
    assert "3/3 runs from cache" in capsys.readouterr().out


def test_cache_info_and_clear(capsys):
    assert main(["campaign", "is", "A", "-n", "3", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "entries    : 3" in out
    assert "pricing" not in out
    # A sim-priced batch campaign also fills the pricing store; its
    # entries are counted apart from campaign results.
    assert main(["batch", "fcfs", "--pool", "2", "-n", "1", "--trace-jobs",
                 "2", "--max-nodes", "1", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "entries    : 4" in out
    assert "pricing entries: 2" in out
    assert main(["cache", "clear"]) == 0
    assert "cleared 4 cached result(s) and 2 pricing entries" in (
        capsys.readouterr().out)
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "entries    : 0" in out
    assert "pricing" not in out


def test_faults_runs_flag_summarizes_campaign(capsys):
    assert main(["faults", "is", "A", "--offline-cores", "1", "-n", "2",
                 "--jobs", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out
    assert "completed 2/2" in out
    assert "fault plan 'cli'" in out


def test_faults_single_run_output_unchanged(capsys):
    assert main(["faults", "is", "A", "--offline-cores", "1"]) == 0
    out = capsys.readouterr().out
    assert "fault log:" in out
    assert "completed       : yes" in out
