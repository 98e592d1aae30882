"""Golden CLI transcripts: the fault, batch and resilience commands, byte for byte.

Each case runs ``hpl-repro`` in-process through :func:`repro.cli.main` and
compares its exit code, stdout and stderr against a transcript committed in
``tests/golden/cli/``.  The cases cover both arms of ``faults`` (node and
``--cluster``, single run and ``-n > 1``), its exit-1 and exit-2 paths, the
batch fault flags, the two resilience experiments, and the single-run
``run``, ``stat`` and ``latency`` commands.  Every command that
runs a campaign passes ``--jobs 1 --no-cache``, because the worker count and
the cache-hit count are printed.

One token is masked on both sides of the comparison: the ``spec digest``
a :class:`~repro.parallel.CampaignRunError` prints.  A spec digest carries
the model epoch (the hash of the model source), so it moves with every
model change; :func:`test_printed_spec_digest_is_the_failing_specs` checks
its value exactly instead.

Regenerating (only legitimate when a change *intentionally* alters CLI
output — say so in the change description):

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_cli.py
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

import repro.experiments.runner as runner
from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

_EXEC = ["--jobs", "1", "--no-cache"]

_SPEC_DIGEST = re.compile(r"spec digest ([0-9a-f]{32})")

#: transcript name -> argv.
CASES = {
    "faults_offline_watchdog": [
        "faults", "is", "A", "--offline-cores", "1", "--watchdog"],
    "faults_offline_online_crash_restart": [
        "faults", "is", "A", "--regime", "hpl", "--seed", "1",
        "--offline-cores", "1", "--online-after", "20000",
        "--crash-rank", "2", "--ft-mode", "restart"],
    "faults_campaign_crash_restart": [
        "faults", "is", "A", "-n", "2", "--crash-rank", "1",
        "--ft-mode", "restart", *_EXEC],
    "faults_campaign_offline": [
        "faults", "is", "A", "-n", "2", "--offline-cores", "2", *_EXEC],
    "faults_random": [
        "faults", "is", "A", "--random", "3", "--plan-seed", "4"],
    "cluster_crash_failover": [
        "faults", "is", "A", "--cluster", "--crash-node", "0",
        "--ft-mode", "restart", "--spares", "1"],
    "cluster_campaign_crash_failover": [
        "faults", "is", "A", "--cluster", "--crash-node", "0",
        "--ft-mode", "restart", "--spares", "1", "-n", "2", *_EXEC],
    "cluster_crash_rank_then_node": [
        "faults", "is", "A", "--cluster", "--crash-rank", "0",
        "--crash-node", "1", "--ft-mode", "restart", "--recover", "shrink"],
    "cluster_slow_degrade": [
        "faults", "is", "A", "--cluster", "--slow-node", "1",
        "--degrade-link", "500"],
    "cluster_campaign_abort": [
        "faults", "is", "A", "--cluster", "-n", "2", "--crash-node", "0",
        *_EXEC],
    "faults_offline_every_core": [
        "faults", "is", "A", "--offline-cores", "4"],
    "cluster_crash_outside": [
        "faults", "is", "A", "--cluster", "--crash-node", "5"],
    "cluster_crash_rank_outside": [
        "faults", "is", "A", "--cluster", "--crash-rank", "6"],
    "cluster_bad_regime": [
        "faults", "is", "A", "--cluster", "--regime", "nice"],
    "batch_faults": [
        "batch", "easy", "--pool", "4", "-n", "2", "--fail-node", "0@2000",
        "--return-node", "0@30000", "--mtbf", "60000",
        "--runtime-model", "analytic", *_EXEC],
    "batch_fail_outside_pool": [
        "batch", "fcfs", "--fail-node", "7@100"],
    "experiment_resilience": [
        "experiment", "resilience", "-n", "2", *_EXEC],
    "experiment_cluster_resilience": [
        "experiment", "cluster-resilience", "-n", "1", *_EXEC],
    "run_hpl": [
        "run", "is", "A", "--regime", "hpl", "--seed", "2"],
    "stat_ranks_only": [
        "stat", "is", "A", "--ranks-only"],
    "latency_histogram": [
        "latency", "is", "A", "--seed", "1", "--histogram"],
}


def _mask(transcript: str) -> str:
    """*transcript* with every printed spec digest replaced by a placeholder."""
    return _SPEC_DIGEST.sub("spec digest <spec-digest>", transcript)


def _transcript(argv, capsys) -> str:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    captured = capsys.readouterr()
    return (f"$ hpl-repro {' '.join(argv)}\n"
            f"--- exit {code}\n"
            f"--- stdout\n{captured.out}"
            f"--- stderr\n{captured.err}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_matches_golden(case: str, capsys) -> None:
    fixture = GOLDEN_DIR / f"{case}.txt"
    got = _mask(_transcript(CASES[case], capsys))
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        fixture.write_text(got, encoding="utf-8")
        return
    assert fixture.is_file(), (
        f"missing golden transcript {fixture}; generate with "
        "REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_cli.py"
    )
    assert got == _mask(fixture.read_text(encoding="utf-8")), (
        f"'hpl-repro {' '.join(CASES[case])}' no longer prints what the "
        "golden transcript pins"
    )


def test_printed_spec_digest_is_the_failing_specs(capsys, monkeypatch) -> None:
    """The masked token, checked exactly: the digest an aborted cluster
    campaign prints is the failing spec's own ``digest()``."""
    seen = []
    execute = runner._execute_cluster_spec

    def recording(spec):
        seen.append(spec)
        return execute(spec)

    monkeypatch.setattr(runner, "_execute_cluster_spec", recording)
    transcript = _transcript(CASES["cluster_campaign_abort"], capsys)
    printed = _SPEC_DIGEST.findall(transcript)
    failing = [spec for spec in seen if spec.run_index == 0]
    assert failing and len(printed) == 1
    assert printed[0] == failing[0].digest()
    assert f"(seed {failing[0].seed}, spec digest" in transcript
