"""Property-based fault-injection stress tests.

Hypothesis generates arbitrary fault schedules (hotplug storms, rank
crashes, runaway daemons, noise bursts) against a small MPI job; after each
run we check the invariants no fault sequence may violate:

* placement: no non-idle task is ever RUNNING/RUNNABLE on an offline CPU;
* bookkeeping: the kernel's consistency check stays clean;
* conservation: every rank task is accounted for — finished, parked on an
  offline CPU's wait list, or killed by a crash, and the work a run
  reports lost never exceeds its wall time;
* determinism: the same seed and plan reproduce the same results bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mpi import MpiApplication
from repro.apps.spmd import Program
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultTolerance,
)
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.invariants import check_books
from repro.kernel.task import TaskState
from repro.topology.presets import power6_js22

N_CPUS = 8
HORIZON = 2_000_000


def _hotplug_pairs(draw_cpu, at, hold):
    return [
        FaultEvent(at=at, kind=FaultKind.CPU_OFFLINE, cpu=draw_cpu),
        FaultEvent(at=at + hold, kind=FaultKind.CPU_ONLINE, cpu=draw_cpu),
    ]


hotplug_strategy = st.builds(
    _hotplug_pairs,
    draw_cpu=st.integers(0, N_CPUS - 1),
    at=st.integers(1_000, 400_000),
    hold=st.integers(1_000, 300_000),
)

runaway_strategy = st.builds(
    lambda at, cpu, duration: [
        FaultEvent(at=at, kind=FaultKind.RUNAWAY, cpu=cpu, duration=duration)
    ],
    at=st.integers(1_000, 400_000),
    cpu=st.integers(0, N_CPUS - 1),
    duration=st.integers(10_000, 200_000),
)

burst_strategy = st.builds(
    lambda at, count, work: [
        FaultEvent(at=at, kind=FaultKind.NOISE_BURST, count=count, work=work)
    ],
    at=st.integers(1_000, 400_000),
    count=st.integers(1, 4),
    work=st.integers(1_000, 50_000),
)

crash_strategy = st.builds(
    lambda at, rank: [FaultEvent(at=at, kind=FaultKind.RANK_CRASH, rank=rank)],
    at=st.integers(5_000, 300_000),
    rank=st.integers(0, 3),
)


def _plan_from(groups):
    return FaultPlan.schedule(
        [e for group in groups for e in group], label="prop"
    )


def _run(plan, *, seed=0, regime="stock", ft=None):
    config = KernelConfig.stock() if regime == "stock" else KernelConfig.hpl()
    kernel = Kernel(power6_js22(), config, seed=seed)
    program = Program.iterative(
        name="prop", n_iters=4, iter_work=30_000, sync_latency=50
    )
    app = MpiApplication(kernel, program, 4, fault_tolerance=ft)
    app.launch()
    injector = FaultInjector(kernel, plan, app=app)
    injector.arm()
    kernel.sim.run_until(60_000_000)
    return kernel, app, injector


def _offline_placement_ok(kernel):
    return [
        t.name
        for t in kernel.tasks.values()
        if not t.is_idle
        and t.state in (TaskState.RUNNING, TaskState.RUNNABLE)
        and not kernel.core.cpu_is_online(t.cpu)
    ]


@settings(max_examples=15, deadline=None)
@given(
    groups=st.lists(
        st.one_of(hotplug_strategy, runaway_strategy, burst_strategy),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 1_000),
    regime=st.sampled_from(["stock", "hpl"]),
)
def test_hotplug_storms_never_strand_tasks(groups, seed, regime):
    plan = _plan_from(groups)
    kernel, app, injector = _run(plan, seed=seed, regime=regime)
    assert app.done and not app.stats.aborted
    assert _offline_placement_ok(kernel) == []
    check_books(kernel)
    # Every rank ran to completion — nothing was lost in an evacuation.
    assert app.stats.ranks_exited == app.nprocs


@settings(max_examples=10, deadline=None)
@given(
    groups=st.lists(
        st.one_of(hotplug_strategy, crash_strategy),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 1_000),
    mode=st.sampled_from(["abort", "restart"]),
)
def test_crashes_conserve_task_accounting(groups, seed, mode):
    ft = FaultTolerance(mode=mode, detection_timeout=2_000,
                        checkpoint_every=2, restart_cost=500)
    plan = _plan_from(groups)
    kernel, app, injector = _run(plan, seed=seed, ft=ft)
    assert app.done
    assert _offline_placement_ok(kernel) == []
    check_books(kernel)
    assert app.stats.lost_work_us <= app.stats.wall_time
    if app.stats.aborted:
        # mpirun semantics: abort kills everything, nothing keeps running.
        assert all(not r.task.alive for r in app.ranks)
    else:
        assert app.stats.ranks_exited == app.nprocs


@settings(max_examples=8, deadline=None)
@given(
    groups=st.lists(
        st.one_of(hotplug_strategy, runaway_strategy, crash_strategy),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 1_000),
)
def test_identical_seeds_reproduce_identical_runs(groups, seed):
    ft = FaultTolerance(mode="restart", detection_timeout=2_000,
                        checkpoint_every=1, restart_cost=500)
    plan = _plan_from(groups)

    def signature():
        kernel, app, injector = _run(plan, seed=seed, ft=ft)
        return (
            app.stats.wall_time,
            app.stats.aborted,
            app.stats.restarts,
            kernel.perf.cpu_migrations,
            kernel.perf.context_switches,
            injector.faults_injected(),
            [(a.time, a.note) for a in injector.applied],
        )

    assert signature() == signature()
