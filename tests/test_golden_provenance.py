"""Golden-provenance fixtures: the perf pass must be semantics-preserving.

Every optimization of the simulator hot path (event queue, scheduler core,
warmth closed forms, perf fabric) is required to leave run output
*byte-identical*.  These tests pin that guarantee: each scenario runs a
small canonical campaign and compares the streamed provenance JSONL
byte-for-byte against a fixture committed before the perf pass
(``tests/golden/*.jsonl``).

The scenarios deliberately cover every scheduling class (fair, rt, hpc,
idle), both kernel variants, affinity pinning, nice, and a faulted run that
exercises hotplug evacuation, rank crash + restart, and a noise burst — the
code paths the hot-path pass touches.

Regenerating (only legitimate when a PR *intentionally* changes simulation
semantics — say so in the PR description):

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_provenance.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.faults import (
    ClusterTolerance,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultTolerance,
)
from repro.units import msecs

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: name -> kwargs for run_nas_campaign.  Keep each scenario small (a few
#: runs) — the point is coverage of code paths, not statistics.
SCENARIOS = {
    "is_a_stock": dict(name="is", klass="A", regime="stock", n_runs=3, base_seed=3),
    "is_a_hpl": dict(name="is", klass="A", regime="hpl", n_runs=3, base_seed=3),
    "cg_a_rt": dict(name="cg", klass="A", regime="rt", n_runs=2, base_seed=11),
    "ep_a_pinned": dict(name="ep", klass="A", regime="pinned", n_runs=2, base_seed=5),
    "is_a_nice": dict(name="is", klass="A", regime="nice", n_runs=2, base_seed=7),
    "is_a_faulted": dict(
        name="is",
        klass="A",
        regime="stock",
        n_runs=2,
        base_seed=13,
        fault_plan=FaultPlan.schedule(
            (
                FaultEvent(at=msecs(60), kind=FaultKind.CPU_OFFLINE, cpu=3),
                FaultEvent(at=msecs(90), kind=FaultKind.NOISE_BURST, count=3, work=400),
                FaultEvent(at=msecs(120), kind=FaultKind.RANK_CRASH, rank=2),
                FaultEvent(at=msecs(200), kind=FaultKind.CPU_ONLINE, cpu=3),
            ),
            label="golden-mixed",
        ),
        fault_tolerance=FaultTolerance(mode="restart", checkpoint_every=2),
    ),
}


#: name -> kwargs for run_cluster_campaign.  One faulted multi-node run:
#: a mid-run node crash detected by the global heartbeat, rolled back to
#: the last coordinated checkpoint, and failed over onto the spare node.
CLUSTER_SCENARIOS = {
    "cluster_crash_failover": dict(
        n_nodes=3,
        regime="stock",
        n_runs=2,
        base_seed=13,
        nprocs_per_node=4,
        spare_nodes=1,
        fault_plans={
            0: FaultPlan.schedule(
                (FaultEvent(at=msecs(80), kind=FaultKind.NODE_CRASH, node=1),),
                label="golden-node-crash",
            )
        },
        tolerance=ClusterTolerance(
            mode="restart",
            recover="failover",
            detection_timeout=5_000,
            checkpoint_every=2,
            restart_cost=2_000,
        ),
    ),
}


def _run_scenario(spec: dict, out_path: Path) -> None:
    from repro.experiments.runner import run_nas_campaign

    kwargs = dict(spec)
    run_nas_campaign(
        kwargs.pop("name"),
        kwargs.pop("klass"),
        kwargs.pop("regime"),
        kwargs.pop("n_runs"),
        provenance_path=str(out_path),
        use_cache=False,
        n_jobs=1,
        **kwargs,
    )


def _cluster_program():
    from repro.apps.spmd import Program

    return Program.iterative(
        name="golden-mn", n_iters=6, iter_work=msecs(10), init_ops=2,
        finalize_ops=1,
    )


def _run_cluster_scenario(spec: dict, out_path: Path) -> None:
    from repro.experiments.runner import run_cluster_campaign

    kwargs = dict(spec)
    run_cluster_campaign(
        _cluster_program,
        kwargs.pop("n_nodes"),
        kwargs.pop("regime"),
        kwargs.pop("n_runs"),
        provenance_path=str(out_path),
        use_cache=False,
        n_jobs=1,
        **kwargs,
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_provenance_matches_golden(scenario: str, tmp_path: Path) -> None:
    fixture = GOLDEN_DIR / f"{scenario}.jsonl"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        _run_scenario(SCENARIOS[scenario], fixture)
        (fixture.parent / f"{scenario}.jsonl.meta.json").unlink(missing_ok=True)
        return
    assert fixture.is_file(), (
        f"missing golden fixture {fixture}; generate with "
        "REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_provenance.py"
    )
    out = tmp_path / f"{scenario}.jsonl"
    _run_scenario(SCENARIOS[scenario], out)
    got = out.read_bytes()
    want = fixture.read_bytes()
    assert got == want, (
        f"provenance for {scenario} is not byte-identical to the golden "
        "fixture — the change is not semantics-preserving"
    )


@pytest.mark.parametrize("scenario", sorted(CLUSTER_SCENARIOS))
def test_cluster_provenance_matches_golden(scenario: str, tmp_path: Path) -> None:
    fixture = GOLDEN_DIR / f"{scenario}.jsonl"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        _run_cluster_scenario(CLUSTER_SCENARIOS[scenario], fixture)
        (fixture.parent / f"{scenario}.jsonl.meta.json").unlink(missing_ok=True)
        return
    assert fixture.is_file(), (
        f"missing golden fixture {fixture}; generate with "
        "REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_provenance.py"
    )
    out = tmp_path / f"{scenario}.jsonl"
    _run_cluster_scenario(CLUSTER_SCENARIOS[scenario], out)
    got = out.read_bytes()
    want = fixture.read_bytes()
    assert got == want, (
        f"provenance for {scenario} is not byte-identical to the golden "
        "fixture — the change is not semantics-preserving"
    )


#: name -> kwargs for run_batch_campaign.  One faulted two-level schedule:
#: a node crash under EASY kills residents, requeues them with
#: checkpoint-aware restart pricing, and the repaired reservation backfills
#: narrow jobs into the hole — the whole fault path in one fixture.
BATCH_SCENARIOS = {
    "batch_crash_requeue": dict(
        policy="easy",
        pool_nodes=3,
        regime="stock",
        n_runs=2,
        base_seed=13,
        runtime_model="analytic",
        restart_cost_us=2_000,
        fault_plan=FaultPlan.schedule(
            (
                FaultEvent(at=5_000, kind=FaultKind.NODE_FAIL, node=0),
                FaultEvent(at=20_000, kind=FaultKind.NODE_RETURN, node=0),
            ),
            label="golden-batch-crash",
        ),
    ),
}


def _run_batch_scenario(spec: dict, out_path: Path) -> None:
    from repro.batch.campaign import run_batch_campaign
    from repro.batch.workload import WorkloadConfig

    kwargs = dict(spec)
    run_batch_campaign(
        kwargs.pop("policy"),
        kwargs.pop("pool_nodes"),
        kwargs.pop("regime"),
        kwargs.pop("n_runs"),
        workload=WorkloadConfig(n_jobs=8, interarrival_us=2_000, max_nodes=2),
        label="golden-batch",
        provenance_path=str(out_path),
        use_cache=False,
        n_jobs=1,
        **kwargs,
    )


@pytest.mark.parametrize("scenario", sorted(BATCH_SCENARIOS))
def test_batch_provenance_matches_golden(scenario: str, tmp_path: Path) -> None:
    fixture = GOLDEN_DIR / f"{scenario}.jsonl"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        _run_batch_scenario(BATCH_SCENARIOS[scenario], fixture)
        (fixture.parent / f"{scenario}.jsonl.meta.json").unlink(missing_ok=True)
        return
    assert fixture.is_file(), (
        f"missing golden fixture {fixture}; generate with "
        "REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_provenance.py"
    )
    out = tmp_path / f"{scenario}.jsonl"
    _run_batch_scenario(BATCH_SCENARIOS[scenario], out)
    got = out.read_bytes()
    want = fixture.read_bytes()
    assert got == want, (
        f"provenance for {scenario} is not byte-identical to the golden "
        "fixture — the change is not semantics-preserving"
    )


#: A deep-queue ``share`` schedule through the CLI, exactly as recorded:
#: arrivals at about twice the drain rate keep ~200 jobs queued, so
#: processor sharing re-times co-residents constantly and many of the
#: schedule's clocks are non-integral rationals (``makespan_us`` among
#: them).
SHARE_BACKLOG_ARGV = [
    "batch", "share", "--pool", "16", "--trace-jobs", "400",
    "--interarrival", "1840", "--max-nodes", "4",
    "--runtime-model", "analytic", "-n", "2", "--seed", "0",
    "--jobs", "1", "--no-cache",
]


def test_share_backlog_provenance_matches_golden(tmp_path: Path) -> None:
    from repro.cli import main

    fixture = GOLDEN_DIR / "batch_share_backlog.jsonl"
    out = fixture if REGEN else tmp_path / fixture.name
    assert main(SHARE_BACKLOG_ARGV + ["--provenance", str(out)]) == 0
    if REGEN:
        (fixture.parent / f"{fixture.name}.meta.json").unlink(missing_ok=True)
        return
    assert out.read_bytes() == fixture.read_bytes(), (
        "deep-queue share provenance is not byte-identical to the golden "
        "fixture — the change is not semantics-preserving"
    )


#: A shallow-queue schedule under a dense fail/return timeline, exactly as
#: recorded: 109 fault events (MTBF failures, two preempting drains and
#: an early return), so ``node_lost_us`` passes through every lost-node
#: transition — a node failing or draining empty or occupied, its last
#: resident leaving, its return.
CHURN_ARGV = [
    "batch", "{policy}", "--pool", "16", "--trace-jobs", "200",
    "--interarrival", "7400", "--max-nodes", "4",
    "--runtime-model", "analytic", "--mtbf", "370000", "--repair", "7400",
    "--fault-horizon", "1480000", "--job-retries", "64",
    "--drain-node", "3@400000", "--drain-node", "9@900000",
    "--drain-preempt", "--return-node", "3@700000",
    "-n", "2", "--seed", "0", "--jobs", "1", "--no-cache",
]


@pytest.mark.parametrize("policy", ["easy", "share"])
def test_churn_provenance_matches_golden(policy: str, tmp_path: Path) -> None:
    from repro.cli import main

    fixture = GOLDEN_DIR / f"batch_churn_{policy}.jsonl"
    out = fixture if REGEN else tmp_path / fixture.name
    argv = [arg.format(policy=policy) for arg in CHURN_ARGV]
    assert main(argv + ["--provenance", str(out)]) == 0
    if REGEN:
        (fixture.parent / f"{fixture.name}.meta.json").unlink(missing_ok=True)
        return
    assert out.read_bytes() == fixture.read_bytes(), (
        f"churn {policy} provenance is not byte-identical to the golden "
        "fixture — the change is not semantics-preserving"
    )
