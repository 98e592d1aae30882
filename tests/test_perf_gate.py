"""Unit tests for the perf-gate comparison logic (benchmarks.perf.simcore).

Only the pure comparison/normalization code runs here — the measurement
suite itself lives outside tier-1 (see benchmarks/perf/test_perf_gate.py).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import simcore


def doc(calib: float, **scores: float) -> dict:
    return {
        "schema": 1,
        "calibration_ops_per_sec": calib,
        "metrics": {
            name: {"score": s, "unit": "events/s", "wall_s": 0.1}
            for name, s in scores.items()
        },
    }


def test_identical_docs_pass() -> None:
    base = doc(1000.0, nas=50_000.0, micro=600_000.0)
    assert simcore.compare(base, base) == []


def test_regression_past_tolerance_fails() -> None:
    base = doc(1000.0, nas=50_000.0)
    cur = doc(1000.0, nas=40_000.0)  # 0.80x < 0.85x floor
    failures = simcore.compare(cur, base, tolerance=0.15)
    assert len(failures) == 1 and failures[0].startswith("nas:")


def test_regression_within_tolerance_passes() -> None:
    base = doc(1000.0, nas=50_000.0)
    cur = doc(1000.0, nas=44_000.0)  # 0.88x >= 0.85x floor
    assert simcore.compare(cur, base, tolerance=0.15) == []


def test_slower_machine_is_normalized_away() -> None:
    base = doc(2000.0, nas=100_000.0)
    # Half-speed host: calibration and score both halve -> no regression.
    cur = doc(1000.0, nas=50_000.0)
    assert simcore.compare(cur, base) == []


def test_real_regression_on_slower_machine_still_caught() -> None:
    base = doc(2000.0, nas=100_000.0)
    # Half-speed host *and* a 30% real slowdown on top.
    cur = doc(1000.0, nas=35_000.0)
    assert len(simcore.compare(cur, base)) == 1


def test_new_and_removed_metrics_are_ignored() -> None:
    base = doc(1000.0, retired_metric=10.0)
    cur = doc(1000.0, brand_new_metric=10.0)
    assert simcore.compare(cur, base) == []


def test_speedup_never_fails() -> None:
    base = doc(1000.0, nas=50_000.0)
    cur = doc(1000.0, nas=500_000.0)
    assert simcore.compare(cur, base) == []


def test_bad_calibration_rejected() -> None:
    base = doc(1000.0, nas=1.0)
    with pytest.raises(ValueError):
        simcore.compare(doc(0.0, nas=1.0), base)


def test_cli_check_flow(tmp_path: Path, monkeypatch, capsys) -> None:
    """End-to-end through the CLI: the module entry point measures a
    stubbed metric subset and writes the JSON document; ``--check`` then
    gates a copy of that recorded document against it.  The second step
    takes no wall-clock measurement (``collect`` returns the recorded
    document), so the outcome does not depend on how busy the host is."""
    out = tmp_path / "BENCH_simcore.json"
    repo_root = Path(__file__).resolve().parent.parent
    cmd = [
        sys.executable,
        "-m",
        "benchmarks.perf.simcore",
        "--only",
        "micro_event_queue",
        "--out",
        str(out),
    ]
    env = {"PYTHONPATH": f"{repo_root / 'src'}:{repo_root}", "REPRO_PERF_REPS": "1"}
    subprocess.run(cmd, check=True, cwd=repo_root, env=env, capture_output=True)
    document = json.loads(out.read_text())
    assert document["schema"] == simcore.SCHEMA
    assert "micro_event_queue" in document["metrics"]

    recorded = json.loads(out.read_text())
    monkeypatch.setattr(simcore, "collect", lambda only=None: recorded)
    status = simcore.main(
        ["--only", "micro_event_queue", "--check", "--baseline", str(out)]
    )
    assert status == 0
    assert "perf gate OK" in capsys.readouterr().out


def test_cli_check_flow_fails_on_regression(tmp_path: Path, monkeypatch,
                                            capsys) -> None:
    """The same CLI flow exits 1 and names the metric when the current
    document is past the tolerance — again without measuring anything."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doc(1000.0, micro_event_queue=100_000.0)))
    monkeypatch.setattr(
        simcore, "collect",
        lambda only=None: doc(1000.0, micro_event_queue=50_000.0),
    )
    status = simcore.main(["--check", "--baseline", str(baseline)])
    assert status == 1
    assert "micro_event_queue" in capsys.readouterr().err


def test_nas_lanes_score_runs_per_second() -> None:
    """A NAS lane scores runs per wall second and reports the run's event
    count beside the score, unscored."""
    metric = simcore._macro_nas("is", "A", "stock", reps=1, inner=2)
    assert metric["unit"] == "runs/s"
    assert isinstance(metric["events"], int) and metric["events"] > 0
    assert metric["score"] * metric["wall_s"] == pytest.approx(2, rel=0.05)


def test_committed_baseline_scores_nas_lanes_in_runs_per_second() -> None:
    baseline = json.loads(
        (Path(__file__).resolve().parent.parent
         / "benchmarks" / "perf" / "baseline" / "BENCH_simcore.json").read_text()
    )
    nas = {k: m for k, m in baseline["metrics"].items() if k.startswith("nas_")}
    assert nas and all(m["unit"] == "runs/s" for m in nas.values())


def test_ab_summary_compares_only_lanes_both_suites_report() -> None:
    from benchmarks.perf.ab import summarize

    def run(**scores: float) -> dict:
        return doc(1000.0, **scores)["metrics"]

    lines = summarize([run(a=100.0, old=5.0), run(a=110.0, old=5.0)],
                      [run(a=120.0, new=7.0), run(a=121.0, new=7.0)])
    rows = {line.split()[0]: line for line in lines[1:]}
    assert set(rows) == {"a", "new", "old"}
    assert rows["a"].split()[-1] == "2/2"
    assert rows["new"].split()[1:] == ["head", "only"]
    assert rows["old"].split()[1:] == ["base", "only"]


def test_ab_pairs_a_revision_with_the_working_tree() -> None:
    """The paired A/B tool extracts a revision, times one lane on both
    sides in fresh interpreters, and prints one summary line per lane."""
    repo_root = Path(__file__).resolve().parent.parent
    if shutil.which("git") is None or subprocess.run(
        ["git", "-C", str(repo_root), "rev-parse", "--verify", "HEAD"],
        capture_output=True,
    ).returncode != 0:
        pytest.skip("needs a git checkout with a HEAD revision")
    env = dict(os.environ, REPRO_PERF_REPS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.ab", "--base", "HEAD",
         "--pairs", "1", "--only", "micro_event_queue"],
        cwd=repo_root, env=env, capture_output=True, text=True, check=True,
    )
    lane = [line for line in proc.stdout.splitlines()
            if line.startswith("micro_event_queue")]
    assert len(lane) == 1 and "ops/s" in lane[0]
    assert lane[0].split()[-1] in ("0/1", "1/1")
