"""Cluster-scale fault domains: detection, coordinated recovery, degraded
modes (DESIGN §12).

Covers the tentpole guarantees end to end: a NODE_CRASH run *completes* in
both failover and shrink-to-fit modes with full accounting; abort mode and
tolerance-free local aborts fail fast with a diagnosable
ClusterIncompleteError (no burn-to-the-horizon hangs); stragglers and
degraded links slow the job without killing it; and the whole fault layer
is invisible on fault-free runs — same seed, byte-identical result.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.units import msecs
from repro.apps.spmd import Program
from repro.cluster.multinode import (
    ClusterIncompleteError,
    ClusterJob,
    run_cluster_job,
)
from repro.faults import ClusterTolerance, FaultEvent, FaultKind, FaultPlan

#: Mid-run instant for the default program below (the job spans roughly
#: 50–115 ms of simulated time).
_MID_RUN = msecs(80)


def _program():
    return Program.iterative(
        name="cf", n_iters=6, iter_work=msecs(10), init_ops=2, finalize_ops=1
    )


def _crash_plan(at=_MID_RUN, node=None):
    return {
        0: FaultPlan.schedule(
            [FaultEvent(at=at, kind=FaultKind.NODE_CRASH, node=node)],
            label="crash",
        )
    }


def _restart_tol(recover="failover", **kw):
    kw.setdefault("checkpoint_every", 2)
    kw.setdefault("detection_timeout", 5_000)
    kw.setdefault("restart_cost", 2_000)
    return ClusterTolerance(mode="restart", recover=recover, **kw)


# ---------------------------------------------------------------- tolerance


def test_cluster_tolerance_validation():
    with pytest.raises(ValueError):
        ClusterTolerance(mode="panic")
    with pytest.raises(ValueError):
        ClusterTolerance(recover="pray")
    with pytest.raises(ValueError):
        ClusterTolerance(detection_timeout=0)
    with pytest.raises(ValueError):
        ClusterTolerance(checkpoint_every=-1)
    assert ClusterTolerance().as_dict()["mode"] == "abort"


# ----------------------------------------------------- fault-free invariance


def test_fault_free_run_byte_deterministic():
    a = run_cluster_job(_program(), 3, regime="stock", seed=9)
    b = run_cluster_job(_program(), 3, regime="stock", seed=9)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert a.node_crashes == 0 and a.restarts == 0
    assert a.surviving_nodes == 3 and a.detection_latency_us is None


def test_tolerance_without_faults_changes_nothing():
    """The detector/checkpoint machinery is pure state when unarmed: a run
    with a restart tolerance but no faults times identically to a bare run."""
    bare = run_cluster_job(_program(), 3, regime="stock", seed=9)
    armed = run_cluster_job(
        _program(), 3, regime="stock", seed=9, tolerance=_restart_tol()
    )
    assert dataclasses.asdict(armed) == dataclasses.asdict(bare)


def test_idle_spares_stay_benched():
    """A benched spare runs its node OS (its daemons share the sim's noise
    streams, so timings legitimately shift) but never launches app ranks."""
    spared = run_cluster_job(_program(), 2, regime="stock", seed=4,
                             spare_nodes=1, tolerance=_restart_tol())
    assert spared.n_spares == 1
    assert spared.surviving_nodes == 2
    assert spared.failovers == 0
    # The spare contributes no rank statistics (it never launched).
    assert spared.node_migrations[2] == 0
    assert spared.node_involuntary_switches[2] == 0


# -------------------------------------------------------------- node crash


def test_node_crash_failover_completes_with_accounting():
    result = run_cluster_job(
        _program(), 3, regime="stock", seed=9,
        fault_plans=_crash_plan(), tolerance=_restart_tol("failover"),
        spare_nodes=1,
    )
    assert result.node_crashes == 1
    assert result.detections == 1
    assert result.restarts == 1
    assert result.failovers == 1 and result.shrinks == 0
    assert result.surviving_nodes == 3  # spare adopted the lost shard
    assert result.detection_latency_us == 5_000
    assert result.lost_work_us >= 0
    assert result.recovery_time_us == 2_000
    assert result.faults_injected == 1


def test_node_crash_shrink_completes_and_pays_for_it():
    baseline = run_cluster_job(_program(), 3, regime="stock", seed=9)
    result = run_cluster_job(
        _program(), 3, regime="stock", seed=9,
        fault_plans=_crash_plan(), tolerance=_restart_tol("shrink"),
    )
    assert result.shrinks == 1 and result.failovers == 0
    assert result.surviving_nodes == 2
    # Survivors carry 3/2 of the per-phase work: the job must cost more.
    assert result.app_time > baseline.app_time


def test_node_crash_abort_raises_with_diagnosis():
    with pytest.raises(ClusterIncompleteError) as info:
        run_cluster_job(
            _program(), 3, regime="stock", seed=9,
            fault_plans=_crash_plan(),
            tolerance=ClusterTolerance(mode="abort", detection_timeout=5_000),
        )
    exc = info.value
    assert "fail-stopped" in str(exc)
    assert exc.node_positions[0]["dead"] is True
    assert "live event" in exc.queue_summary


def test_node_crash_without_tolerance_aborts_not_hangs():
    """No ClusterTolerance at all: the crash still fails the job promptly
    (default tolerance is abort) instead of waiting out the horizon."""
    job = ClusterJob(_program(), n_nodes=3, seed=9,
                     fault_plans=_crash_plan())
    with pytest.raises(ClusterIncompleteError):
        job.run()
    # The detector fired shortly after the crash, not at the horizon.
    assert job.sim.now < msecs(200)


def test_crash_targeting_other_node():
    """A plan on node 0 can fail-stop node 2 (node= addressing)."""
    result = run_cluster_job(
        _program(), 3, regime="stock", seed=9,
        fault_plans=_crash_plan(node=2), tolerance=_restart_tol("shrink"),
    )
    assert result.node_crashes == 1
    assert result.surviving_nodes == 2


def test_crash_plan_validation():
    with pytest.raises(ValueError, match="unknown node"):
        ClusterJob(_program(), n_nodes=2, fault_plans=_crash_plan(node=7))
    with pytest.raises(ValueError, match="unknown node"):
        ClusterJob(_program(), n_nodes=2, fault_plans={5: FaultPlan.none()})


def test_rank_crash_escalates_to_coordinated_recovery():
    """RANK_CRASH inside a cluster job — formerly rejected outright — now
    routes through the coordinator when a cluster tolerance is set."""
    plans = {
        1: FaultPlan.schedule(
            [FaultEvent(at=_MID_RUN, kind=FaultKind.RANK_CRASH, rank=2)],
            label="rank-crash",
        )
    }
    result = run_cluster_job(
        _program(), 3, regime="stock", seed=9, fault_plans=plans,
        tolerance=_restart_tol("failover"), spare_nodes=1,
    )
    assert result.restarts == 1
    assert result.detections == 1
    # The rank loss keeps the node; the spare stays benched.
    assert result.failovers == 0 and result.shrinks == 0
    assert result.surviving_nodes == 3


def test_rank_crash_without_tolerance_fails_whole_job():
    """The satellite fix: a node-local abort used to leave the other nodes
    burning to the horizon; now the whole job fails immediately."""
    plans = {
        1: FaultPlan.schedule(
            [FaultEvent(at=_MID_RUN, kind=FaultKind.RANK_CRASH, rank=2)],
            label="rank-crash",
        )
    }
    job = ClusterJob(_program(), n_nodes=3, seed=9, fault_plans=plans)
    with pytest.raises(ClusterIncompleteError, match="aborted"):
        job.run()
    assert job.sim.now < msecs(200)


def test_max_restarts_bounds_recovery():
    crashes = {
        0: FaultPlan.schedule(
            [
                FaultEvent(at=msecs(70), kind=FaultKind.NODE_CRASH, node=1),
                FaultEvent(at=msecs(95), kind=FaultKind.NODE_CRASH, node=2),
            ],
            label="double-crash",
        )
    }
    with pytest.raises(ClusterIncompleteError):
        run_cluster_job(
            _program(), 3, regime="stock", seed=9, fault_plans=crashes,
            tolerance=_restart_tol("shrink", max_restarts=1),
        )


def _rank_then_node_plan():
    """Rank 2 of node 1 crashes mid-run; node 2 fail-stops 0.5 ms later,
    so the rank's detection fires while the node loss is still pending."""
    return {
        1: FaultPlan.schedule(
            [
                FaultEvent(at=_MID_RUN, kind=FaultKind.RANK_CRASH, rank=2),
                FaultEvent(at=_MID_RUN + 500, kind=FaultKind.NODE_CRASH, node=2),
            ],
            label="rank-then-node",
        )
    }


def test_node_lost_in_rank_detection_window_still_shrinks():
    rank_only = run_cluster_job(
        _program(), 3, regime="stock", seed=9,
        fault_plans={1: FaultPlan.schedule(
            [FaultEvent(at=_MID_RUN, kind=FaultKind.RANK_CRASH, rank=2)],
            label="rank-crash",
        )},
        tolerance=_restart_tol("shrink"),
    )
    job = ClusterJob(_program(), n_nodes=3, seed=9,
                     fault_plans=_rank_then_node_plan(),
                     tolerance=_restart_tol("shrink"))
    result = job.run()
    # One detection places both losses: the dead node's shard is spread
    # over the two survivors instead of silently dropped.
    assert result.detections == 1 and result.restarts == 1
    assert result.node_crashes == 1 and result.shrinks == 1
    assert result.surviving_nodes == 2
    assert job._work_scale == 1.5
    assert result.app_time > rank_only.app_time
    assert not job._dead_pending


def test_node_lost_in_rank_detection_window_fails_over():
    job = ClusterJob(_program(), n_nodes=3, seed=9,
                     fault_plans=_rank_then_node_plan(),
                     tolerance=_restart_tol("failover"), spare_nodes=1)
    result = job.run()
    assert result.failovers == 1 and result.shrinks == 0
    assert result.surviving_nodes == 3
    assert not job._dead_pending


def test_losing_every_node_fails_the_job():
    crashes = {0: FaultPlan.schedule(
        [FaultEvent(at=_MID_RUN, kind=FaultKind.NODE_CRASH, node=n)
         for n in range(3)],
        label="all-nodes",
    )}
    with pytest.raises(ClusterIncompleteError, match="no node is left"):
        run_cluster_job(_program(), 3, regime="stock", seed=9,
                        fault_plans=crashes, tolerance=_restart_tol("shrink"))


#: Crash instants 60–90 ms in 0.5 ms steps: close enough together that a
#: crash often lands inside another one's detection window.
_crash_at = st.integers(0, 60).map(lambda k: msecs(60) + 500 * k)

#: (plan node, event): a node fail-stop addressed from node 0's plan, or a
#: rank crash on one of the three participants.
_mixed_crash = st.one_of(
    st.builds(
        lambda at, node: (0, FaultEvent(at=at, kind=FaultKind.NODE_CRASH,
                                        node=node)),
        _crash_at, st.integers(0, 2),
    ),
    st.builds(
        lambda at, node, rank: (node, FaultEvent(at=at, kind=FaultKind.RANK_CRASH,
                                                 rank=rank)),
        _crash_at, st.integers(0, 2), st.integers(0, 3),
    ),
)


@settings(max_examples=20, deadline=None)
@given(
    crashes=st.lists(_mixed_crash, min_size=1, max_size=3),
    recover=st.sampled_from(["failover", "shrink"]),
    spares=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)
@example(
    crashes=[
        (1, FaultEvent(at=_MID_RUN, kind=FaultKind.RANK_CRASH, rank=2)),
        (0, FaultEvent(at=_MID_RUN + 500, kind=FaultKind.NODE_CRASH, node=2)),
    ],
    recover="shrink", spares=0, seed=9,
)
def test_every_node_crash_is_placed_once(crashes, recover, spares, seed):
    events_by_node = {}
    for node, event in crashes:
        events_by_node.setdefault(node, []).append(event)
    job = ClusterJob(
        _program(), n_nodes=3, nprocs_per_node=4, seed=seed,
        fault_plans={
            node: FaultPlan.schedule(events, label="mixed")
            for node, events in events_by_node.items()
        },
        tolerance=_restart_tol(recover), spare_nodes=spares,
    )
    try:
        result = job.run()
    except ClusterIncompleteError:
        assert job.failed is not None  # a decision (budget, no node left)
        return
    assert result.failovers + result.shrinks == result.node_crashes
    assert result.surviving_nodes == (
        3 - result.node_crashes + result.failovers
    )


# --------------------------------------------------------- degraded modes


def test_node_slowdown_slows_but_completes():
    baseline = run_cluster_job(_program(), 3, regime="stock", seed=9)
    plans = {
        1: FaultPlan.schedule(
            [FaultEvent(at=msecs(60), kind=FaultKind.NODE_SLOWDOWN,
                        factor=0.5, duration=msecs(40))],
            label="straggle",
        )
    }
    result = run_cluster_job(_program(), 3, regime="stock", seed=9,
                             fault_plans=plans)
    assert result.faults_injected == 1
    assert result.node_crashes == 0
    assert result.app_time > baseline.app_time


def test_link_degrade_slows_but_completes():
    baseline = run_cluster_job(_program(), 3, regime="stock", seed=9)
    plans = {
        0: FaultPlan.schedule(
            [FaultEvent(at=msecs(55), kind=FaultKind.LINK_DEGRADE,
                        latency=3_000, duration=msecs(60))],
            label="slow-link",
        )
    }
    result = run_cluster_job(_program(), 3, regime="stock", seed=9,
                             fault_plans=plans)
    assert result.faults_injected == 1
    assert result.app_time > baseline.app_time


def test_single_node_slowdown_without_cluster():
    """NODE_SLOWDOWN also works on a plain single-node faulted run (the
    injector scales its own kernel when no coordinator is attached)."""
    from repro.experiments.runner import run_job

    plan = FaultPlan.schedule(
        [FaultEvent(at=msecs(60), kind=FaultKind.NODE_SLOWDOWN,
                    factor=0.5, duration=msecs(40))],
        label="solo-straggle",
    )
    bare = run_job(_program(), 8, "stock",
                   fault_plan=FaultPlan.schedule(
                       [FaultEvent(at=1, kind=FaultKind.NOISE_BURST,
                                   count=1, work=1)],
                       label="tick"))
    slow = run_job(_program(), 8, "stock", fault_plan=plan)
    assert slow.kernel.fault_injector.faults_injected() == 1
    assert slow.result.app_time > bare.result.app_time


def test_cluster_kinds_skip_gracefully_without_cluster():
    from repro.experiments.runner import run_job

    plan = FaultPlan.schedule(
        [
            FaultEvent(at=msecs(60), kind=FaultKind.NODE_CRASH),
            FaultEvent(at=msecs(61), kind=FaultKind.LINK_DEGRADE,
                       latency=100, duration=1_000),
            FaultEvent(at=msecs(62), kind=FaultKind.NODE_SLOWDOWN,
                       factor=0.5, duration=1_000, node=3),
        ],
        label="orphan",
    )
    injector = run_job(_program(), 8, "stock", fault_plan=plan).kernel.fault_injector
    # No coordinator: the crash and link kinds skip, and the slowdown
    # addressed to node 3 (not this node) skips too.
    assert injector.faults_injected() == 0
    assert all(a.note.startswith("skipped") for a in injector.applied)


# ---------------------------------------------------------- heterogeneity


def test_heterogeneous_straggler_through_campaign():
    """machine_factories thread through specs → worker → ClusterJob: a
    half-speed node drags the campaign's every repetition."""
    from repro.topology.cache import power6_cache_hierarchy
    from repro.topology.machine import Machine
    from repro.experiments.runner import run_cluster_campaign
    from repro.kernel.daemons import quiet_profile

    def fast():
        return Machine(2, 2, 2, power6_cache_hierarchy(),
                       smt_throughput=(1.0, 0.62), name="fast")

    def slow():
        return Machine(2, 2, 2, power6_cache_hierarchy(),
                       smt_throughput=(0.5, 0.31), name="slow")

    homo = run_cluster_campaign(
        _program, 2, "hpl", 2, base_seed=5, nprocs_per_node=4,
        machine_factories=[fast, fast], noise=quiet_profile(),
    )
    hetero = run_cluster_campaign(
        _program, 2, "hpl", 2, base_seed=5, nprocs_per_node=4,
        machine_factories=[fast, slow], noise=quiet_profile(),
    )
    for h, s in zip(homo.results, hetero.results):
        assert s.app_time == pytest.approx(h.app_time * 2, rel=0.1)


# ------------------------------------------------------------- determinism


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_cluster_run_byte_deterministic_any_seed(seed):
    a = run_cluster_job(_program(), 2, regime="stock", seed=seed,
                        nprocs_per_node=4)
    b = run_cluster_job(_program(), 2, regime="stock", seed=seed,
                        nprocs_per_node=4)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_faulted_cluster_run_deterministic():
    kw = dict(fault_plans=_crash_plan(), tolerance=_restart_tol("failover"),
              spare_nodes=1)
    a = run_cluster_job(_program(), 3, regime="stock", seed=3, **kw)
    b = run_cluster_job(_program(), 3, regime="stock", seed=3, **kw)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    kinds=st.sampled_from([FaultKind.CLUSTER, FaultKind.ALL]),
)
@settings(max_examples=25, deadline=None)
def test_fault_plan_digests_stable_and_distinct(seed, n, kinds):
    plan = FaultPlan.random(seed, horizon=msecs(200), n_cpus=8, n_ranks=8,
                            n_faults=n, kinds=kinds)
    assert plan.digest() == plan.digest()
    # Rebuilding the plan from its serialized form preserves the digest.
    clone = FaultPlan(
        events=tuple(FaultEvent(**d) for d in plan.as_dict()["events"]),
        label=plan.label,
        seed=plan.seed,
    )
    assert clone.digest() == plan.digest()
    # A different usable-kinds universe (or seed) is a different plan
    # digest unless the draws coincide — test the guaranteed direction:
    assert FaultPlan.random(seed + 1, horizon=msecs(200), n_cpus=8,
                            n_ranks=8, n_faults=n, kinds=kinds).events \
        != plan.events or n == 0


def test_cluster_kind_digests_distinct():
    base = dict(at=msecs(10))
    plans = [
        FaultPlan.schedule([FaultEvent(kind=FaultKind.NODE_CRASH, **base)]),
        FaultPlan.schedule([FaultEvent(kind=FaultKind.NODE_SLOWDOWN,
                                       factor=0.5, duration=100, **base)]),
        FaultPlan.schedule([FaultEvent(kind=FaultKind.LINK_DEGRADE,
                                       latency=100, duration=100, **base)]),
    ]
    digests = {p.digest() for p in plans}
    assert len(digests) == 3


# --------------------------------------------------------------- campaigns


def test_cluster_campaign_parallel_matches_serial(tmp_path):
    from repro.experiments.runner import run_cluster_campaign

    kw = dict(base_seed=11, nprocs_per_node=4,
              fault_plans=_crash_plan(), tolerance=_restart_tol("shrink"))
    serial = run_cluster_campaign(
        _program, 3, "stock", 2, n_jobs=1,
        provenance_path=str(tmp_path / "serial.jsonl"), **kw)
    parallel = run_cluster_campaign(
        _program, 3, "stock", 2, n_jobs=2,
        provenance_path=str(tmp_path / "parallel.jsonl"), **kw)
    assert [dataclasses.asdict(r) for r in serial.results] == \
        [dataclasses.asdict(r) for r in parallel.results]
    assert (tmp_path / "serial.jsonl").read_bytes() == \
        (tmp_path / "parallel.jsonl").read_bytes()


def test_cluster_provenance_faults_record(tmp_path):
    import json

    from repro.experiments.runner import run_cluster_campaign

    path = tmp_path / "prov.jsonl"
    run_cluster_campaign(
        _program, 3, "stock", 1, base_seed=11,
        fault_plans=_crash_plan(), tolerance=_restart_tol("failover"),
        spare_nodes=1, provenance_path=str(path), label="cf",
    )
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 1
    rec = records[0]
    assert rec["kind"] == "cluster"
    assert rec["n_nodes"] == 3 and rec["n_spares"] == 1
    assert rec["surviving_nodes"] == 3
    faults = rec["faults"]
    assert faults["plans"]["0"]["label"] == "crash"
    assert faults["node_crashes"] == 1
    assert faults["failovers"] == 1
    assert faults["tolerance"]["recover"] == "failover"


def test_cluster_campaign_cache_round_trip(tmp_path):
    from repro.experiments.runner import run_cluster_campaign

    kw = dict(base_seed=11, nprocs_per_node=4, use_cache=True,
              cache_dir=str(tmp_path / "cache"))
    cold = run_cluster_campaign(_program, 2, "stock", 2, **kw)
    warm = run_cluster_campaign(_program, 2, "stock", 2, **kw)
    assert cold.cache_hits == 0
    assert warm.cache_hits == 2
    assert [dataclasses.asdict(r) for r in cold.results] == \
        [dataclasses.asdict(r) for r in warm.results]


def test_cluster_spec_digest_discriminates():
    from repro.experiments.runner import build_cluster_specs

    base = build_cluster_specs(_program, 2, "stock", 1, base_seed=1)[0]
    spared = build_cluster_specs(_program, 2, "stock", 1, base_seed=1,
                                 spare_nodes=1)[0]
    faulted = build_cluster_specs(_program, 2, "stock", 1, base_seed=1,
                                  fault_plans=_crash_plan())[0]
    tol = build_cluster_specs(_program, 2, "stock", 1, base_seed=1,
                              tolerance=_restart_tol())[0]
    digests = {s.digest() for s in (base, spared, faulted, tol)}
    assert len(digests) == 4
    # And the digest is content-stable.
    again = build_cluster_specs(_program, 2, "stock", 1, base_seed=1)[0]
    assert again.digest() == base.digest()


def test_cluster_resilience_experiment_registered():
    from repro.experiments.registry import get_experiment

    exp = get_experiment("cluster-resilience")
    assert "Multi-node" in exp.description
