"""Differential test: the single rank-recovery path against its oracle.

Node jobs and cluster jobs share one detect -> decide -> roll-back path:
``MpiApplication.rollback`` (with ``_fork``/``_new_rank`` for every spawn)
and ``ClusterJob._decide``.  The two copies it replaced are kept verbatim in
``tests/oracles/recovery.py``, apart from three marked fixes.  Hypothesis
demands, with and without the oracle installed, over

* node-level rank-crash plans under abort and restart tolerances, in every
  launch regime, and
* cluster-level plans mixing node fail-stops and rank crashes under abort,
  failover and shrink tolerances, with and without a spare node, in every
  cluster regime,

the same outcome (result and per-node application statistics, or the same
error) and the same fired ``(time, label)`` sequence.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.spmd import Program
from repro.cluster.multinode import ClusterJob
from repro.experiments.runner import CLUSTER_REGIMES, KERNEL_VARIANTS, run_job
from repro.faults import (
    ClusterTolerance,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultTolerance,
)
from repro.topology.presets import power6_js22
from repro.units import msecs

from tests.oracles import recovery

Hook = Callable[[int, str], None]


def _observe(run: Callable[[Hook], object]) -> Tuple[object, List[Tuple[int, str]]]:
    """*run*'s outcome (or the error it raised) and every event it fired."""
    fired: List[Tuple[int, str]] = []
    try:
        outcome = run(lambda t, label: fired.append((t, label)))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        outcome = (type(exc), str(exc))
    return outcome, fired


def _assert_same_as_oracle(run: Callable[[Hook], object]) -> None:
    lean_outcome, lean_fired = _observe(run)
    with recovery.installed():
        oracle_outcome, oracle_fired = _observe(run)
    assert lean_outcome == oracle_outcome
    assert lean_fired == oracle_fired


# ------------------------------------------------------------------ node


#: Restart-heavy: abort needs one detection to be covered, restart many.
_modes = st.sampled_from(("restart", "restart", "abort"))
#: A budget of 1 or 2 runs out within three crashes; 3 rarely does.
_budgets = st.integers(1, 3)


@settings(max_examples=60, deadline=None)
@given(
    regime=st.sampled_from(sorted(KERNEL_VARIANTS)),
    seed=st.integers(0, 2**16),
    n_iters=st.integers(2, 8),
    nprocs=st.integers(2, 8),
    crashes=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 7)), min_size=1, max_size=3
    ),
    mode=_modes,
    checkpoint_every=st.integers(0, 2),
    max_restarts=_budgets,
)
def test_node_recovery_matches_oracle(
    regime, seed, n_iters, nprocs, crashes, mode, checkpoint_every, max_restarts
) -> None:
    program = Program.iterative(
        name="oracle-node", n_iters=n_iters, iter_work=msecs(5), init_ops=2
    )
    # Crash instants are percentages of the job's compute span; the ranks
    # exist from about 57 ms on.
    span = n_iters * msecs(5)
    plan = FaultPlan.schedule(
        [
            FaultEvent(
                at=msecs(57) + span * pct // 100,
                kind=FaultKind.RANK_CRASH,
                rank=rank % nprocs,
            )
            for pct, rank in crashes
        ],
        label="oracle-node",
    )
    ft = FaultTolerance(
        mode=mode,
        detection_timeout=2_000,
        checkpoint_every=checkpoint_every,
        restart_cost=500,
        max_restarts=max_restarts,
    )

    def run(hook: Hook):
        job = run_job(
            program, nprocs, regime, seed=seed, machine=power6_js22(),
            instrument=lambda kernel: kernel.sim.add_trace_hook(hook),
            fault_plan=plan, fault_tolerance=ft,
        )
        return job.result

    _assert_same_as_oracle(run)


# --------------------------------------------------------------- cluster

#: Crash instants 60–110 ms in 0.5 ms steps, so that crashes often land
#: inside each other's detection windows.
_crash_at = st.integers(0, 100).map(lambda k: msecs(60) + 500 * k)


@settings(max_examples=60, deadline=None)
@given(
    regime=st.sampled_from(CLUSTER_REGIMES),
    seed=st.integers(0, 2**16),
    n_nodes=st.integers(2, 3),
    nprocs_per_node=st.integers(2, 4),
    spares=st.integers(0, 1),
    crashes=st.lists(
        # (node fail-stop?, instant, node, rank)
        st.tuples(st.booleans(), _crash_at, st.integers(0, 2), st.integers(0, 3)),
        min_size=1,
        max_size=3,
    ),
    mode=_modes,
    recover=st.sampled_from(ClusterTolerance.RECOVERS),
    checkpoint_every=st.integers(0, 2),
    max_restarts=_budgets,
)
def test_cluster_recovery_matches_oracle(
    regime, seed, n_nodes, nprocs_per_node, spares, crashes,
    mode, recover, checkpoint_every, max_restarts,
) -> None:
    events = {}
    for node_crash, at, node, rank in crashes:
        if node_crash:  # addressed from node 0's plan
            event = FaultEvent(at=at, kind=FaultKind.NODE_CRASH, node=node % n_nodes)
            events.setdefault(0, []).append(event)
        else:
            event = FaultEvent(
                at=at, kind=FaultKind.RANK_CRASH, rank=rank % nprocs_per_node
            )
            events.setdefault(node % n_nodes, []).append(event)
    plans = {
        node: FaultPlan.schedule(evs, label="oracle-cluster")
        for node, evs in events.items()
    }
    program = Program.iterative(
        name="oracle-cluster", n_iters=6, iter_work=msecs(10), init_ops=2,
        finalize_ops=1,
    )
    tolerance = ClusterTolerance(
        mode=mode,
        recover=recover,
        detection_timeout=5_000,
        checkpoint_every=checkpoint_every,
        restart_cost=2_000,
        max_restarts=max_restarts,
    )

    def run(hook: Hook):
        job = ClusterJob(
            program, n_nodes=n_nodes, nprocs_per_node=nprocs_per_node,
            regime=regime, seed=seed, fault_plans=plans, tolerance=tolerance,
            spare_nodes=spares,
        )
        job.sim.add_trace_hook(hook)
        result = job.run()
        return (
            dataclasses.asdict(result),
            [dataclasses.asdict(handle.app.stats) for handle in job.nodes],
        )

    _assert_same_as_oracle(run)
