"""Property-based whole-scheduler stress tests.

Hypothesis generates arbitrary workloads (mixed policies, affinities, sleep
cycles, machine shapes); after running each to quiescence we check the
invariants no schedule may violate:

* bookkeeping consistency (every RUNNING task is some CPU's current task,
  queued tasks are RUNNABLE and on the right queue, ...);
* liveness: every finite workload finishes;
* conservation: a task's CPU time covers at least its nominal work;
* counter coherence: per-CPU perf counters sum to the totals, and per-task
  switch counts never exceed the system-wide count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.invariants import check_books
from repro.kernel.task import SchedPolicy, TaskState
from repro.topology.presets import generic_smp, power6_js22, xeon_dual_socket
from repro.units import msecs, secs


MACHINES = {
    "smp1": lambda: generic_smp(1),
    "smp3": lambda: generic_smp(3),
    "js22": power6_js22,
    "xeon": lambda: xeon_dual_socket(cores_per_socket=2),
}


task_strategy = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(
            [SchedPolicy.NORMAL, SchedPolicy.BATCH, SchedPolicy.FIFO,
             SchedPolicy.RR, SchedPolicy.HPC]
        ),
        "work": st.integers(50, msecs(20)),
        "nice": st.integers(-10, 10),
        "rt_priority": st.integers(1, 90),
        "sleeps": st.integers(0, 2),
        "sleep_len": st.integers(10, msecs(2)),
        "pin": st.booleans(),
    }
)

workload_strategy = st.fixed_dictionaries(
    {
        "machine": st.sampled_from(sorted(MACHINES)),
        "variant": st.sampled_from(["stock", "hpl"]),
        "seed": st.integers(0, 10_000),
        "tasks": st.lists(task_strategy, min_size=1, max_size=8),
    }
)


def _run_workload(spec):
    machine = MACHINES[spec["machine"]]()
    config = (
        KernelConfig.hpl() if spec["variant"] == "hpl" else KernelConfig.stock()
    )
    kernel = Kernel(machine, config, seed=spec["seed"])
    finished = []
    workers = []

    for i, ts in enumerate(spec["tasks"]):
        policy = ts["policy"]
        if policy == SchedPolicy.HPC and spec["variant"] != "hpl":
            policy = SchedPolicy.NORMAL
        kwargs = {}
        if policy in (SchedPolicy.FIFO, SchedPolicy.RR):
            kwargs["rt_priority"] = ts["rt_priority"]
        if ts["pin"]:
            kwargs["affinity"] = frozenset({i % machine.n_cpus})
        task = kernel.spawn(
            f"p{i}",
            policy=policy,
            nice=ts["nice"] if policy in SchedPolicy.FAIR else 0,
            work=ts["work"],
            on_segment_end=lambda: None,
            **kwargs,
        )

        def make_handler(t, ts):
            state = {"sleeps_left": ts["sleeps"]}

            def segment_end():
                if state["sleeps_left"] > 0:
                    state["sleeps_left"] -= 1
                    kernel.block(t)

                    def resume():
                        kernel.set_segment(t, ts["work"] // 2 + 1, segment_end)
                        kernel.wake(t)

                    kernel.sim.after(ts["sleep_len"], resume)
                else:
                    finished.append(t.pid)
                    kernel.exit(t)

            return segment_end

        task.on_segment_end = make_handler(task, ts)
        workers.append((task, ts))

    kernel.sim.run_until(secs(240))
    return kernel, workers, finished


@given(spec=workload_strategy)
@settings(max_examples=40, deadline=None)
def test_random_workloads_satisfy_invariants(spec):
    kernel, workers, finished = _run_workload(spec)

    # Liveness: everything ran to completion.
    assert len(finished) == len(workers)
    for task, ts in workers:
        assert task.state == TaskState.EXITED

    # Consistency of the final books.
    check_books(kernel)

    # Conservation: CPU time >= nominal work (speed factors <= 1, overheads
    # only add), and not absurdly more than the cold-floor bound.
    for task, ts in workers:
        total_work = ts["work"] + ts["sleeps"] * (ts["work"] // 2 + 1)
        assert task.sum_exec_runtime >= total_work
        assert task.sum_exec_runtime < total_work / 0.3 + msecs(60)

    # Counter coherence.
    perf = kernel.perf
    assert sum(perf.per_cpu_context_switches) == perf.context_switches
    assert sum(perf.per_cpu_migrations) == perf.cpu_migrations
    for task, _ in workers:
        assert task.nr_switches <= perf.context_switches
        assert task.nr_migrations <= perf.cpu_migrations
        # Pinned tasks can only have migrated at their initial placement.
        if task.affinity is not None and len(task.affinity) == 1:
            assert task.nr_migrations <= 1


@given(
    seed=st.integers(0, 1000),
    n_tasks=st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_determinism_across_replays(seed, n_tasks):
    """The same workload spec must replay bit-identically."""
    spec = {
        "machine": "js22",
        "variant": "stock",
        "seed": seed,
        "tasks": [
            {
                "policy": SchedPolicy.NORMAL,
                "work": 1000 * (i + 1),
                "nice": 0,
                "rt_priority": 1,
                "sleeps": i % 2,
                "sleep_len": 500,
                "pin": False,
            }
            for i in range(n_tasks)
        ],
    }
    k1, w1, _ = _run_workload(spec)
    k2, w2, _ = _run_workload(spec)
    assert k1.perf.context_switches == k2.perf.context_switches
    assert k1.perf.cpu_migrations == k2.perf.cpu_migrations
    for (t1, _), (t2, _) in zip(w1, w2):
        assert t1.sum_exec_runtime == t2.sum_exec_runtime
        assert t1.exited_at == t2.exited_at


@given(spec=workload_strategy)
@settings(max_examples=15, deadline=None)
def test_hpc_tasks_never_preempted_by_fair(spec):
    """The HPL guarantee as a property: on an HPL kernel, an HPC task's
    involuntary switches can only come from RT tasks or HPC rotation."""
    spec = dict(spec, variant="hpl")
    kernel, workers, _ = _run_workload(spec)
    has_rt = any(
        ts["policy"] in (SchedPolicy.FIFO, SchedPolicy.RR) for _, ts in workers
    )
    hpc_per_cpu_possible = len(
        [1 for _, ts in workers if ts["policy"] == SchedPolicy.HPC]
    ) > 1
    for task, ts in workers:
        if ts["policy"] == SchedPolicy.HPC and not has_rt and not hpc_per_cpu_possible:
            assert task.nr_involuntary_switches == 0
