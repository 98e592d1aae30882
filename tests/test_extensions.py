"""Tests for the extension modules: tracing, timelines and multi-node
co-simulation."""

import pytest

from repro.analysis.timeline import build_timeline, render_gantt
from repro.apps.spmd import Program
from repro.cluster.multinode import ClusterJob, run_cluster_job
from repro.kernel.daemons import quiet_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.sim.trace import SchedTrace, TraceEvent, TraceKind, attach_trace
from repro.topology.presets import generic_smp, power6_js22
from repro.units import msecs, secs


def kernel_with_work(machine=None, n_tasks=2, work=msecs(5), trace=False):
    """Build a kernel; optionally attach a trace *before* spawning (spawn
    dispatches synchronously, so a late-attached trace misses the entry
    switches)."""
    kernel = Kernel(machine or generic_smp(2), KernelConfig.stock(), seed=0)
    tr = attach_trace(kernel) if trace else None
    tasks = []
    for i in range(n_tasks):
        t = kernel.spawn(f"w{i}", work=work, on_segment_end=lambda: None)
        t.on_segment_end = (lambda tt=t: kernel.exit(tt))
        tasks.append(t)
    if trace:
        return kernel, tasks, tr
    return kernel, tasks


# -------------------------------------------------------------------- trace


def test_trace_records_switches_and_migrations():
    kernel, tasks, trace = kernel_with_work(trace=True)
    kernel.sim.run_until(secs(1))
    assert trace.count(TraceKind.SWITCH) >= 2
    # perf counter and trace agree on migrations.
    assert trace.count(TraceKind.MIGRATE) == kernel.perf.cpu_migrations


def test_trace_filtering():
    trace = SchedTrace()
    trace.switch(10, 0, 1, 2)
    trace.switch(20, 1, 3, 4)
    trace.wakeup(30, 0, 5)
    assert len(trace.events(kind=TraceKind.SWITCH)) == 2
    assert len(trace.events(cpu=0)) == 2
    assert len(trace.events(pid=4)) == 1
    assert len(trace.events(start=15, end=25)) == 1


def test_trace_ring_buffer_bounds():
    trace = SchedTrace(capacity=3)
    for i in range(5):
        trace.mark(i, f"m{i}")
    assert len(trace) == 3
    assert trace.dropped == 2
    assert trace.events()[0].label == "m2"


def test_trace_disable():
    trace = SchedTrace()
    trace.enabled = False
    trace.mark(1, "x")
    assert len(trace) == 0


def test_trace_capacity_validation():
    with pytest.raises(ValueError):
        SchedTrace(capacity=0)


# ----------------------------------------------------------------- timeline


def test_timeline_reconstruction():
    kernel, tasks, trace = kernel_with_work(generic_smp(1), n_tasks=2,
                                            work=msecs(10), trace=True)
    kernel.sim.run_until(secs(2))
    idle_pids = [t.pid for t in kernel.tasks.values() if t.is_idle]
    tl = build_timeline(trace, idle_pids=idle_pids)
    # Both workers held cpu0 at some point, never overlapping.
    ivs = tl.for_cpu(0)
    assert len(ivs) >= 2
    for a, b in zip(ivs, ivs[1:]):
        assert a.end <= b.start
    # Residency ~ the work each performed (plus small overheads).
    for t in tasks:
        assert tl.residency(t.pid) >= msecs(9)


def test_timeline_occupancy_bounds():
    kernel, _, trace = kernel_with_work(generic_smp(1), n_tasks=1,
                                        work=msecs(5), trace=True)
    kernel.sim.run_until(secs(1))
    idle_pids = [t.pid for t in kernel.tasks.values() if t.is_idle]
    tl = build_timeline(trace, idle_pids=idle_pids)
    assert 0.0 < tl.occupancy(0) <= 1.0


def test_timeline_requires_events():
    with pytest.raises(ValueError):
        build_timeline(SchedTrace())


def test_gantt_rendering():
    kernel, tasks, trace = kernel_with_work(generic_smp(2), n_tasks=2,
                                            work=msecs(3), trace=True)
    kernel.sim.run_until(secs(1))
    idle_pids = [t.pid for t in kernel.tasks.values() if t.is_idle]
    tl = build_timeline(trace, idle_pids=idle_pids)
    names = {t.pid: t.name for t in kernel.tasks.values()}
    art = render_gantt(tl, names=names, width=40)
    assert "cpu0" in art and "legend:" in art
    assert "w0" in art


# ---------------------------------------------------------------- multinode


def _mn_program():
    return Program.iterative(
        name="mn", n_iters=6, iter_work=msecs(10), init_ops=2, finalize_ops=1
    )


def test_cluster_job_single_node():
    r = run_cluster_job(_mn_program(), 1, regime="stock", seed=1)
    assert r.n_nodes == 1
    assert r.app_time > 6 * msecs(10)


def test_cluster_nodes_share_one_clock():
    job = ClusterJob(_mn_program(), n_nodes=3, regime="stock", seed=1)
    sims = {handle.kernel.sim for handle in job.nodes}
    assert sims == {job.sim}


def test_cluster_slowdown_grows_with_nodes_under_stock():
    t1 = run_cluster_job(_mn_program(), 1, regime="stock", seed=2).app_time
    t6 = run_cluster_job(_mn_program(), 6, regime="stock", seed=2).app_time
    assert t6 >= t1  # per-phase max over more nodes can only grow


def test_cluster_hpl_flat_across_nodes():
    t1 = run_cluster_job(_mn_program(), 1, regime="hpl", seed=2).app_time
    t6 = run_cluster_job(_mn_program(), 6, regime="hpl", seed=2).app_time
    assert t6 == pytest.approx(t1, rel=0.02)


def test_cluster_quiet_noise_matches_clean_time():
    r = run_cluster_job(_mn_program(), 4, regime="hpl", seed=1,
                        noise=quiet_profile())
    # 6 iterations x (10ms work / 0.62 SMT + latency).
    assert r.app_time_s == pytest.approx(6 * (0.010 / 0.62), rel=0.05)


def test_cluster_validation():
    with pytest.raises(ValueError):
        ClusterJob(_mn_program(), n_nodes=0)
    with pytest.raises(ValueError):
        ClusterJob(_mn_program(), n_nodes=1, regime="bogus")


def test_cluster_heterogeneous_straggler():
    """One half-SMT-speed node drags the whole cluster to its pace."""
    from repro.topology.cache import power6_cache_hierarchy
    from repro.topology.machine import Machine

    def fast():
        return Machine(2, 2, 2, power6_cache_hierarchy(),
                       smt_throughput=(1.0, 0.62), name="fast")

    def slow():
        return Machine(2, 2, 2, power6_cache_hierarchy(),
                       smt_throughput=(0.5, 0.31), name="slow")

    program = _mn_program()
    homo = ClusterJob(program, n_nodes=3, regime="hpl", seed=1,
                      machine_factories=[fast, fast, fast],
                      noise=quiet_profile()).run()
    hetero = ClusterJob(program, n_nodes=3, regime="hpl", seed=1,
                        machine_factories=[fast, fast, slow],
                        noise=quiet_profile()).run()
    # The slow node halves compute speed; global barriers transmit it.
    assert hetero.app_time == pytest.approx(homo.app_time * 2, rel=0.1)


def test_cluster_machine_factories_validation():
    with pytest.raises(ValueError):
        ClusterJob(_mn_program(), n_nodes=2, machine_factories=[power6_js22])
