"""Additional coverage: wake-ring search, sched_exec states, multinode
edges, figure internals."""

import pytest

from repro.analysis.histogram import build_histogram
from repro.apps.spmd import Program
from repro.cluster.multinode import ClusterJob
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.sched_core import SchedCoreConfig
from repro.kernel.task import SchedPolicy, TaskState
from repro.memsim.warmth import WarmthParams
from repro.topology.presets import generic_smp, power6_js22
from repro.units import msecs, secs


def clean_kernel(machine=None, variant="stock"):
    core = SchedCoreConfig(switch_cost=0, migration_cost=0, tick_overhead=0.0)
    warmth = WarmthParams(initial_warmth=1.0)
    cfg = (
        KernelConfig.hpl(core=core, warmth=warmth)
        if variant == "hpl"
        else KernelConfig.stock(core=core, warmth=warmth)
    )
    return Kernel(machine or power6_js22(), cfg, seed=0)


def hog(kernel, name, work=msecs(20), **kw):
    t = kernel.spawn(name, work=work, on_segment_end=lambda: None, **kw)
    t.on_segment_end = lambda: kernel.exit(t)
    return t


# -------------------------------------------------- wake placement rings


def test_wake_prefers_core_sibling_over_remote_idle():
    """When prev is busy, the stock waker searches the core first."""
    kernel = clean_kernel(power6_js22())
    sleeper = kernel.spawn("s", work=100, on_segment_end=lambda: None)
    state = {}

    def sleep():
        state["prev"] = sleeper.cpu
        kernel.block(sleeper)
        hog(kernel, "blocker", affinity=frozenset({state["prev"]}))
        kernel.sim.after(msecs(1), wake)

    def wake():
        kernel.set_segment(sleeper, 100, lambda: kernel.exit(sleeper))
        kernel.wake(sleeper)
        state["woke_on"] = sleeper.cpu

    sleeper.on_segment_end = sleep
    kernel.sim.run_until(secs(1))
    prev_thread = power6_js22().cpu(state["prev"])
    sibling = next(t.cpu_id for t in prev_thread.core.threads
                   if t.cpu_id != state["prev"])
    assert state["woke_on"] == sibling


# ------------------------------------------------------- sched_exec states


def test_sched_exec_on_sleeping_task_reassigns_cpu():
    kernel = clean_kernel(generic_smp(2))
    t = kernel.spawn("s", work=100, on_segment_end=lambda: None)
    state = {}

    def sleep():
        state["cpu"] = t.cpu
        kernel.block(t)
        # While it sleeps, occupy its CPU and exec-rebalance it.
        hog(kernel, "h", affinity=frozenset({state["cpu"]}))
        kernel.sched_exec(t)
        state["after"] = t.cpu
        kernel.sim.after(msecs(1), wake)

    def wake():
        kernel.set_segment(t, 100, lambda: kernel.exit(t))
        kernel.wake(t)

    t.on_segment_end = sleep
    kernel.sim.run_until(secs(1))
    assert state["after"] != state["cpu"]  # moved to the idle CPU
    assert t.state == TaskState.EXITED


def test_sched_exec_on_exited_task_rejected():
    kernel = clean_kernel(generic_smp(2))
    t = hog(kernel, "x", work=100)
    kernel.sim.run_until(msecs(10))
    assert t.state == TaskState.EXITED
    with pytest.raises(ValueError):
        kernel.sched_exec(t)


# --------------------------------------------------------- multinode edges


def test_internode_latency_slows_collectives():
    program = Program.iterative(
        name="lat", n_iters=10, iter_work=msecs(2), init_ops=0, finalize_ops=0
    )

    def run(latency):
        from repro.kernel.daemons import quiet_profile

        job = ClusterJob(program, n_nodes=2, nprocs_per_node=4,
                         regime="hpl", seed=1, internode_latency=latency,
                         noise=quiet_profile())
        # HPC policy needs launching through run(); regime handles it.
        return job.run().app_time

    fast = run(10)
    slow = run(5000)
    # 11 collectives x ~5ms extra latency.
    assert slow - fast == pytest.approx(11 * 4990, rel=0.15)


# ------------------------------------------------------------ histogram edges


def test_histogram_explicit_range_clips_counts():
    h = build_histogram([1, 2, 3, 100], n_bins=2, lo=0, hi=4)
    assert sum(h.counts) == 3  # the outlier falls outside the range


def test_mass_above_empty():
    h = build_histogram([1.0], n_bins=1)
    assert 0.0 <= h.mass_above(0.0) <= 1.0
