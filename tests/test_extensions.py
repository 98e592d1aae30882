"""Tests for the extension modules: tracing, timelines, the energy meter,
the TLB model, and multi-node co-simulation."""

import pytest

from repro.analysis.timeline import build_timeline, render_gantt
from repro.apps.spmd import Program
from repro.cluster.multinode import ClusterJob, run_cluster_job
from repro.kernel.daemons import quiet_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.power import EnergyMeter, PowerParams
from repro.memsim.tlb import TlbModel, TlbParams
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


# -------------------------------------------------------------------- power


def test_power_params_validation():
    with pytest.raises(ValueError):
        PowerParams(core_busy_w=1.0, core_idle_w=2.0)
    with pytest.raises(ValueError):
        PowerParams(smt_extra_w=-1.0)


def test_idle_node_power_floor():
    kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    meter = EnergyMeter(kernel)
    p = meter.power_now()
    # Both chips fully idle: gated uncore + idle cores.
    expected = 2 * 6.0 + 4 * 3.5
    assert p == pytest.approx(expected)


def test_busy_power_above_idle():
    kernel, _ = kernel_with_work(power6_js22(), n_tasks=4, work=msecs(20))
    meter = EnergyMeter(kernel)
    assert meter.power_now() > 2 * 6.0 + 4 * 3.5


def test_fully_idle_chip_gates_uncore():
    kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    meter = EnergyMeter(kernel)
    # One task pinned to chip 0 only: chip 1 stays gated.
    t = kernel.spawn("w", work=msecs(20), on_segment_end=lambda: None,
                     affinity=frozenset({0}))
    t.on_segment_end = (lambda: kernel.exit(t))
    one_chip = meter.power_now()
    assert one_chip == pytest.approx(20.0 + 6.0 + 14.0 + 3 * 3.5)


def test_energy_integrates_over_time():
    kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    meter = EnergyMeter(kernel)
    kernel.sim.at(secs(1), lambda: None)
    kernel.sim.run_until(secs(1))
    joules = meter.sample()
    idle_power = 2 * 6.0 + 4 * 3.5  # gated uncore + idle cores
    assert joules == pytest.approx(idle_power * 1.0, rel=0.01)


def test_energy_busy_run_costs_more():
    def energy(n_tasks):
        kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
        meter = EnergyMeter(kernel)
        for i in range(n_tasks):
            t = kernel.spawn(f"w{i}", work=msecs(50), on_segment_end=lambda: None)
            t.on_segment_end = (lambda tt=t: kernel.exit(tt))
        kernel.sim.at(msecs(100), lambda: None)
        kernel.sim.run_until(msecs(100))
        return meter.sample()

    assert energy(4) > energy(0)


# ---------------------------------------------------------------------- TLB


def test_tlb_params_validation():
    with pytest.raises(ValueError):
        TlbParams(tlb_entries=0)
    with pytest.raises(ValueError):
        TlbParams(miss_penalty_us=0)


def test_small_working_set_fully_covered():
    model = TlbModel()
    a = model.assess(footprint_kib=1024)  # 256 pages < 1024 entries
    assert a.coverage == 1.0
    assert a.miss_rate == 0.0
    assert a.speed_factor == 1.0


def test_large_working_set_pays_drag():
    model = TlbModel()
    a = model.assess(footprint_kib=256 * 1024)  # 64K pages >> 1024 entries
    assert a.coverage < 0.02
    assert a.speed_factor < 0.95


def test_hugepages_recover_speed():
    model = TlbModel()
    speedup = model.hugepage_speedup(footprint_kib=256 * 1024)
    assert speedup > 1.05
    huge = TlbModel(TlbParams().with_hugepages()).assess(256 * 1024)
    assert huge.coverage == 1.0


def test_switch_refill_scales_with_residency():
    model = TlbModel()
    small = model.switch_cost_us(footprint_kib=64)
    big = model.switch_cost_us(footprint_kib=1 << 20)
    assert big > small


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
