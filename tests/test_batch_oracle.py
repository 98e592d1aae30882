"""Differential test: the indexed batch dispatcher against its oracle.

The dispatcher keeps its queue, release order, free list and node
residency as indexes updated event by event, and times shared jobs by a
``finish_at`` scan instead of one heap event per job per membership
change.  None of that may change a schedule.  The dispatcher as it was
before those indexes is kept verbatim in ``tests/oracles/`` and Hypothesis
demands an equal :class:`~repro.batch.dispatcher.BatchResult` — every
field, including ``reservations``, ``busy_node_us``, ``node_lost_us`` and
``head_delays``, not just the schedule digest — over arbitrary traces
(same-instant arrivals included), fault timelines
(fail/drain/preempting drain/return), all four policies with their
parameters, both placements and retry budgets.  The indexed side runs with
``REPRO_SANITIZE=1``, so every event also audits its indexes.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.dispatcher import PLACEMENTS, simulate_batch
from repro.batch.workload import BatchJob, WorkloadConfig, generate_trace
from repro.faults.plan import FaultPlan

from tests.oracles.batch_dispatcher import simulate_batch as oracle_batch
from tests.test_properties_batch_faults import (
    POOL,
    _timeline,
    _trace,
    fault_draw,
    timeline_strategy,
    trace_strategy,
)

#: Traces with zero arrival gaps and equal runtimes, so same-instant
#: arrivals and same-instant completions (the tie-break cases) are common.
tie_draw = st.tuples(
    st.integers(min_value=0, max_value=3).map(lambda g: g * 100),
    st.integers(min_value=1, max_value=POOL),
    st.sampled_from((100, 200, 400)),
    st.sampled_from((100, 200, 300, 600)),
)
tie_trace_strategy = st.lists(tie_draw, min_size=1, max_size=16).map(_trace)
tie_timeline_strategy = st.lists(
    fault_draw.map(lambda d: (d[0] // 100 * 100,) + d[1:]),
    min_size=0, max_size=6,
).map(_timeline)

policy_strategy = st.one_of(
    st.tuples(st.just("fcfs"), st.none()),
    st.tuples(st.just("easy"), st.none()),
    st.tuples(
        st.just("priority"),
        st.fixed_dictionaries({
            "wait_weight": st.integers(min_value=0, max_value=20),
            "estimate_weight": st.integers(min_value=0, max_value=20),
        }),
    ),
    st.tuples(
        st.just("share"),
        st.fixed_dictionaries({"max_share": st.integers(min_value=1,
                                                        max_value=4)}),
    ),
)


def _both(jobs, pool, policy, params, **kw):
    """Schedule once on each dispatcher; the indexed one sanitized."""
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "1"}):
        indexed = simulate_batch(jobs, pool, policy, policy_params=params,
                                 runtime_model="analytic", **kw)
    oracle = oracle_batch(jobs, pool, policy, policy_params=params,
                          runtime_model="analytic", **kw)
    return indexed, oracle


def _assert_same(indexed, oracle) -> None:
    for name in indexed.__dataclass_fields__:
        assert getattr(indexed, name) == getattr(oracle, name), name
    assert indexed == oracle
    assert indexed.schedule_digest() == oracle.schedule_digest()


@settings(max_examples=150, deadline=None)
@given(trace=st.one_of(trace_strategy, tie_trace_strategy),
       timeline=st.one_of(timeline_strategy, tie_timeline_strategy),
       policy=policy_strategy,
       placement=st.sampled_from(PLACEMENTS),
       retries=st.integers(min_value=0, max_value=3),
       restart_cost=st.integers(min_value=0, max_value=50))
def test_indexed_dispatcher_matches_oracle(trace, timeline, policy, placement,
                                           retries, restart_cost):
    jobs, runtimes = trace
    name, params = policy
    indexed, oracle = _both(jobs, POOL, name, params, runtimes=runtimes,
                            fault_plan=timeline, job_retries=retries,
                            restart_cost_us=restart_cost,
                            placement=placement)
    _assert_same(indexed, oracle)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       policy=policy_strategy,
       placement=st.sampled_from(PLACEMENTS),
       armed=st.booleans())
def test_generated_backlogs_match_oracle(seed, policy, placement, armed):
    # Deeper queues on a wider pool: arrivals outrun the drain rate, so the
    # rank index, the release walk and shared repricing all see real load.
    trace = generate_trace(
        WorkloadConfig(n_jobs=60, interarrival_us=1_000, max_nodes=4), seed
    )
    plan = None
    if armed:
        horizon = trace[-1].submit
        plan = FaultPlan.mtbf(seed, horizon=horizon, n_nodes=8,
                              mtbf_us=horizon // 2, repair_us=horizon // 20)
    name, params = policy
    indexed, oracle = _both(trace, 8, name, params, fault_plan=plan,
                            job_retries=8, placement=placement)
    _assert_same(indexed, oracle)


@pytest.mark.parametrize("policy", ["fcfs", "easy", "priority", "share"])
def test_perfbench_shaped_trace_matches_oracle(policy):
    # One trace at the shape of the batch-backlog benchmark (queue about
    # 200 deep at its peak) — the regime the indexes were built for.
    trace = generate_trace(
        WorkloadConfig(n_jobs=400, interarrival_us=1_840, max_nodes=4), 0
    )
    indexed, oracle = _both(trace, 16, policy, None)
    _assert_same(indexed, oracle)


def test_easy_same_instant_releases_walk_smallest_first():
    # Two running jobs release at t=100: job0 frees 2 nodes, job1 frees 1.
    # The head (4 wide) crosses its need inside that tie, and the walk
    # takes the tie smallest count first (the historical order by release,
    # reclaimable nodes, job id): 2 free + 1 + 2 = 5, so 1 node is spare
    # at the shadow and the long 1-wide job3 may backfill into it.
    def job(job_id, submit, n_nodes, estimate):
        return BatchJob(job_id=job_id, submit=submit, n_nodes=n_nodes,
                        nprocs_per_node=4, n_iters=3, estimate=estimate,
                        seed=job_id + 1)

    jobs = (job(0, 0, 2, 100), job(1, 0, 1, 100), job(2, 1, 4, 50),
            job(3, 2, 1, 1_000))
    runtimes = {0: 100, 1: 100, 2: 50, 3: 1_000}
    indexed, oracle = _both(jobs, 5, "easy", None, runtimes=runtimes)
    _assert_same(indexed, oracle)
    starts = {o.job_id: o.start for o in indexed.jobs}
    assert starts[3] == 2 and starts[2] == 100
    assert indexed.backfills == 1 and indexed.head_delays == 0
