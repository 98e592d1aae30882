"""Batch dispatcher and policies: hand-checkable schedules.

Every test injects per-job base runtimes (the ``runtimes`` override), so
each schedule is exact integer arithmetic that can be verified by hand —
no node-level simulation, no randomness.
"""

from __future__ import annotations

import pytest

from repro.batch.dispatcher import BatchDispatcher, simulate_batch
from repro.batch.policies import make_policy
from repro.batch.workload import BatchJob


def job(job_id, submit, n_nodes, estimate, seed=1):
    return BatchJob(
        job_id=job_id, submit=submit, n_nodes=n_nodes, nprocs_per_node=4,
        n_iters=3, estimate=estimate, seed=seed,
    )


def run(jobs, pool, policy, runtimes, **params):
    return simulate_batch(
        tuple(jobs), pool, policy, policy_params=params or None,
        runtime_model="analytic", runtimes=runtimes,
    )


def outcomes(result):
    return {o.job_id: o for o in result.jobs}


# ------------------------------------------------------------------- FCFS

def test_fcfs_head_blocks_queue():
    # pool 2: job0 occupies both nodes; job2 (1 node) arrives later but
    # must wait behind the 2-node head job1 — strict arrival order.
    jobs = [job(0, 0, 2, 100), job(1, 1, 2, 100), job(2, 2, 1, 10)]
    r = run(jobs, 2, "fcfs", {0: 100, 1: 100, 2: 10})
    o = outcomes(r)
    assert o[0].start == 0 and o[0].finish == 100
    assert o[1].start == 100 and o[1].finish == 200
    assert o[2].start == 200  # blocked behind the head despite fitting
    assert r.backfills == 0


def test_fcfs_packs_independent_nodes():
    jobs = [job(0, 0, 1, 50), job(1, 0, 1, 50)]
    r = run(jobs, 2, "fcfs", {0: 50, 1: 50})
    o = outcomes(r)
    assert o[0].start == 0 and o[1].start == 0
    assert r.utilization == 1.0


# ------------------------------------------------------------------- EASY

def test_easy_backfills_without_delaying_head():
    # job0 holds one of two nodes until t=100; the 2-node head job1 must
    # wait for it (shadow = 100).  job2 (1 node, est 10) fits the free
    # node and finishes by t=12 < shadow, so EASY starts it immediately
    # — where FCFS would have held it behind the head until t=200.
    jobs = [job(0, 0, 1, 100), job(1, 1, 2, 100), job(2, 2, 1, 10)]
    r = run(jobs, 2, "easy", {0: 100, 1: 100, 2: 10})
    o = outcomes(r)
    assert o[2].start == 2 and o[2].backfilled
    assert o[1].start == 100  # head starts exactly at its reservation
    assert r.backfills == 1
    assert r.head_delays == 0


def test_fcfs_blocks_where_easy_backfills():
    jobs = [job(0, 0, 1, 100), job(1, 1, 2, 100), job(2, 2, 1, 10)]
    r = run(jobs, 2, "fcfs", {0: 100, 1: 100, 2: 10})
    o = outcomes(r)
    assert o[2].start == 200  # strict FCFS: waits out the head


def test_easy_refuses_backfill_that_would_delay_head():
    # Same shape, but job2's estimate (200) overruns the head's shadow
    # time (100) and the reservation counts on the node it would take
    # (extra = 0) — so EASY must not backfill it.
    jobs = [job(0, 0, 1, 100), job(1, 1, 2, 100), job(2, 2, 1, 200)]
    r = run(jobs, 2, "easy", {0: 100, 1: 100, 2: 150})
    o = outcomes(r)
    assert not o[2].backfilled
    assert o[1].start == 100
    assert r.head_delays == 0


def test_easy_backfills_into_spare_nodes_past_shadow():
    # pool 3: head needs 2 nodes, shadow releases 2 (head takes both is
    # wrong — it releases 2, head needs 2, extra = free(1) + freed(2) - 2
    # = 1), so a long 1-node job may run past the shadow on the spare.
    jobs = [job(0, 0, 2, 100), job(1, 1, 2, 100), job(2, 2, 1, 500)]
    r = run(jobs, 3, "easy", {0: 100, 1: 100, 2: 400})
    o = outcomes(r)
    assert o[2].start == 2 and o[2].backfilled  # fits the extra node
    assert o[1].start == 100  # head still on time
    assert r.head_delays == 0


def test_easy_reservation_promises_audited():
    jobs = [job(0, 0, 1, 100), job(1, 1, 2, 100), job(2, 2, 1, 10)]
    r = run(jobs, 2, "easy", {0: 100, 1: 100, 2: 10})
    assert r.reservations  # the head's promise was recorded
    for job_id, promised, actual in r.reservations:
        assert actual <= promised


# --------------------------------------------------------------- priority

def test_priority_prefers_short_jobs():
    # Both queued while the pool is busy; at the release instant the
    # shorter estimate wins despite arriving later.
    jobs = [job(0, 0, 2, 100), job(1, 1, 2, 1000), job(2, 2, 2, 10)]
    r = run(jobs, 2, "priority", {0: 100, 1: 900, 2: 10})
    o = outcomes(r)
    assert o[2].start == 100  # overtakes job1
    assert o[1].start == 110


def test_priority_wait_eventually_wins():
    # With a huge wait weight, arrival order dominates estimates.
    jobs = [job(0, 0, 2, 100), job(1, 1, 2, 1000), job(2, 2, 2, 10)]
    r = run(jobs, 2, "priority", {0: 100, 1: 900, 2: 10},
            wait_weight=10_000, estimate_weight=1)
    o = outcomes(r)
    assert o[1].start == 100  # eldest wait first


@pytest.mark.parametrize("weights", [
    {"wait_weight": 1.5},
    {"estimate_weight": 0.5},
    {"wait_weight": 2.0},
    {"wait_weight": True},
    {"estimate_weight": False},
    {"wait_weight": "1"},
])
def test_priority_rejects_non_integer_weights(weights):
    # The rank key w*submit + e*estimate is exact only in integers; a float
    # (or bool) weight would silently turn it into float arithmetic.
    with pytest.raises(ValueError, match="must be an integer"):
        make_policy("priority", **weights)
    jobs = [job(0, 0, 1, 100)]
    with pytest.raises(ValueError, match="must be an integer"):
        run(jobs, 1, "priority", {0: 100}, **weights)


def test_priority_rejects_negative_weights():
    with pytest.raises(ValueError, match="cannot be negative"):
        make_policy("priority", wait_weight=-1)


def test_priority_rank_key_is_time_invariant():
    # Ordering by the score w*(now - submit) - e*estimate at any instant is
    # ordering by the fixed key (w*submit + e*estimate, job_id).
    policy = make_policy("priority", wait_weight=3, estimate_weight=2)
    jobs = [job(0, 0, 1, 500), job(1, 100, 1, 50), job(2, 400, 1, 10),
            job(3, 100, 1, 50)]
    by_key = sorted(jobs, key=policy.rank_key)
    for now in (400, 1_000, 10**9):
        by_score = sorted(
            jobs,
            key=lambda j: (-(3 * (now - j.submit) - 2 * j.estimate), j.job_id),
        )
        assert [j.job_id for j in by_score] == [j.job_id for j in by_key]


# ------------------------------------------------------------------ share

def test_share_colocates_and_dilates():
    # Two equal jobs on one node: each runs at rate 1/2, both finish at
    # exactly 2x the isolated runtime — the processor-sharing model.
    jobs = [job(0, 0, 1, 1000), job(1, 0, 1, 1000)]
    r = run(jobs, 1, "share", {0: 100, 1: 100})
    o = outcomes(r)
    assert o[0].start == 0 and o[1].start == 0
    assert o[0].finish == 200 and o[1].finish == 200
    assert o[0].shared_peak == 2
    assert r.colocations == 1
    assert r.kills == 0  # sharing never kills


def test_share_staggered_exact_fractions():
    # job0 alone for 50us (50 of 100 work done), then shares at rate 1/2:
    # remaining 50 takes 100 wall -> finishes at 150.  job1 does 50 work
    # while sharing, then runs alone: remaining 50 at rate 1 -> 200.
    # Exact Fraction arithmetic, no float drift.
    jobs = [job(0, 0, 1, 1000), job(1, 50, 1, 1000)]
    r = run(jobs, 1, "share", {0: 100, 1: 100})
    o = outcomes(r)
    assert o[0].finish == 150
    assert o[1].finish == 200
    assert o[1].runtime == 150  # held the node 150us for 100us of work


def test_share_cap_queues_excess():
    jobs = [job(0, 0, 1, 1000), job(1, 0, 1, 1000), job(2, 0, 1, 1000)]
    r = run(jobs, 1, "share", {0: 100, 1: 100, 2: 100}, max_share=2)
    o = outcomes(r)
    # job2 waits for a slot instead of making residency 3.
    assert o[2].start > 0
    assert max(x.shared_peak for x in r.jobs) == 2


def test_share_spreads_to_least_loaded_nodes():
    jobs = [job(0, 0, 1, 1000), job(1, 0, 1, 1000)]
    r = run(jobs, 2, "share", {0: 100, 1: 100})
    o = outcomes(r)
    # Two nodes, two jobs: no reason to co-locate.
    assert r.colocations == 0
    assert o[0].finish == 100 and o[1].finish == 100


# ------------------------------------------------------- walltime enforcement

def test_rigid_kills_at_walltime_limit():
    jobs = [job(0, 0, 1, 50)]
    r = run(jobs, 1, "fcfs", {0: 100})  # real demand 100 > limit 50
    o = outcomes(r)
    assert o[0].killed
    assert o[0].finish == 50
    assert r.kills == 1


def test_kill_frees_nodes_for_successor():
    jobs = [job(0, 0, 1, 50), job(1, 1, 1, 100)]
    r = run(jobs, 1, "fcfs", {0: 100, 1: 80})
    o = outcomes(r)
    assert o[0].killed and o[0].finish == 50
    assert o[1].start == 50 and not o[1].killed


# ----------------------------------------------------------- engine contract

def test_schedules_deterministic_and_digest_stable():
    jobs = [job(i, i * 3, 1 + i % 2, 100 + i) for i in range(8)]
    runtimes = {i: 40 + 7 * i for i in range(8)}
    a = run(jobs, 3, "easy", runtimes)
    b = run(jobs, 3, "easy", runtimes)
    assert a == b
    assert a.schedule_digest() == b.schedule_digest()
    assert len(a.schedule_digest()) == 16


def test_policies_produce_distinct_schedules():
    # A trace EASY actually backfills on: the schedules (not just the
    # policy labels baked into the digest) must differ.
    jobs = [job(0, 0, 1, 100), job(1, 1, 2, 100), job(2, 2, 1, 10)]
    runtimes = {0: 100, 1: 100, 2: 10}
    results = {pol: run(jobs, 2, pol, runtimes) for pol in ("fcfs", "easy")}
    starts = {
        pol: [(o.job_id, o.start) for o in r.jobs]
        for pol, r in results.items()
    }
    assert starts["fcfs"] != starts["easy"]
    assert (results["fcfs"].schedule_digest()
            != results["easy"].schedule_digest())


def test_dispatcher_rejects_impossible_job():
    with pytest.raises(ValueError, match="no policy can ever start it"):
        BatchDispatcher((job(0, 0, 4, 10),), 2, make_policy("fcfs"))


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown batch policy"):
        make_policy("round-robin")


def test_queue_depth_peak_tracked():
    jobs = [job(0, 0, 2, 1000)] + [job(i, 1, 1, 10) for i in range(1, 5)]
    r = run(jobs, 2, "fcfs", {0: 1000, 1: 10, 2: 10, 3: 10, 4: 10})
    assert r.queue_depth_peak == 4


def test_bounded_slowdown_uses_isolated_demand():
    # A shared job's bsld reflects the dilation: response 200 over
    # isolated demand 100 -> bsld 2 (tau clamps the denominator floor).
    jobs = [job(0, 0, 1, 100_000), job(1, 0, 1, 100_000)]
    r = run(jobs, 1, "share", {0: 100_000, 1: 100_000})
    for o in r.jobs:
        assert o.bounded_slowdown == pytest.approx(2.0)
