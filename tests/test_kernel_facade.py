"""Tests for the Kernel facade: spawning, inheritance, syscalls, variants."""

import pytest

from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.task import SchedPolicy, TaskState
from repro.topology.presets import generic_smp, power6_js22
from repro.units import msecs, secs


def exiting(kernel, name, work=msecs(5), **kw):
    t = kernel.spawn(name, work=work, on_segment_end=lambda: None, **kw)
    t.on_segment_end = lambda: kernel.exit(t)
    return t


def test_stock_has_no_hpc_class(stock_kernel):
    assert stock_kernel.hpl_class is None
    names = [c.name for c in stock_kernel.core.classes]
    assert names == ["rt", "fair", "idle"]


def test_hpl_class_sits_between_rt_and_fair(hpl_kernel):
    names = [c.name for c in hpl_kernel.core.classes]
    assert names == ["rt", "hpc", "fair", "idle"]


def test_variant_validation():
    with pytest.raises(ValueError):
        KernelConfig(variant="micro")


def test_spawn_hpc_on_stock_rejected(stock_kernel):
    with pytest.raises(ValueError):
        stock_kernel.spawn("h", policy=SchedPolicy.HPC, work=1, on_segment_end=lambda: None)


def test_boot_creates_per_cpu_idle_tasks(js22, stock_kernel):
    idles = [t for t in stock_kernel.tasks.values() if t.is_idle]
    assert len(idles) == js22.n_cpus
    assert all(t.state in (TaskState.RUNNING, TaskState.RUNNABLE) for t in idles)


def test_policy_inheritance_across_fork(hpl_kernel):
    kernel = hpl_kernel
    chrt = exiting(kernel, "chrt", work=msecs(50))
    kernel.sched_setscheduler(chrt, SchedPolicy.HPC)
    child = exiting(kernel, "child", parent=chrt)
    assert child.policy == SchedPolicy.HPC


def test_rt_priority_inheritance(stock_kernel):
    parent = exiting(stock_kernel, "p", work=msecs(50),
                     policy=SchedPolicy.FIFO, rt_priority=42)
    child = exiting(stock_kernel, "c", parent=parent)
    assert child.policy == SchedPolicy.FIFO
    assert child.rt_priority == 42


def test_affinity_inheritance(stock_kernel):
    parent = exiting(stock_kernel, "p", affinity=frozenset({2, 3}))
    child = exiting(stock_kernel, "c", parent=parent)
    assert child.affinity == frozenset({2, 3})
    assert child.cpu in (2, 3)


def test_pids_are_unique_and_increasing(stock_kernel):
    a = exiting(stock_kernel, "a")
    b = exiting(stock_kernel, "b")
    assert b.pid > a.pid
    assert len({t.pid for t in stock_kernel.tasks.values()}) == len(stock_kernel.tasks)


def test_spawn_with_work_requires_handler(stock_kernel):
    with pytest.raises(ValueError):
        stock_kernel.spawn("bad", work=100)


def test_setscheduler_validation(hpl_kernel):
    t = exiting(hpl_kernel, "t", work=msecs(50))
    with pytest.raises(ValueError):
        hpl_kernel.sched_setscheduler(t, SchedPolicy.IDLE)
    with pytest.raises(ValueError):
        hpl_kernel.sched_setscheduler(t, SchedPolicy.FIFO, rt_priority=0)
    # The idle task stays idle: the SMT busy count is kept per rq.curr
    # change and would miss an idle task turning into real work.
    swapper = next(t for t in hpl_kernel.tasks.values() if t.is_idle)
    with pytest.raises(ValueError):
        hpl_kernel.sched_setscheduler(swapper, SchedPolicy.NORMAL)


def test_setscheduler_rejected_for_queued_task(stock_kernel):
    kernel = Kernel(generic_smp(1), KernelConfig.stock(), seed=0)
    running = exiting(kernel, "r", work=msecs(50))
    queued = exiting(kernel, "q", work=msecs(50))
    waiting = queued if queued.state == TaskState.RUNNABLE else running
    with pytest.raises(ValueError):
        kernel.sched_setscheduler(waiting, SchedPolicy.FIFO, 10)


def test_setaffinity_moves_running_task():
    kernel = Kernel(generic_smp(2), KernelConfig.stock(), seed=0)
    t = exiting(kernel, "t", work=msecs(50))
    kernel.sim.run_until(10)
    target = 1 - t.cpu
    kernel.sched_setaffinity(t, frozenset({target}))
    assert t.cpu == target


def test_setaffinity_validation(stock_kernel):
    t = exiting(stock_kernel, "t")
    with pytest.raises(ValueError):
        stock_kernel.sched_setaffinity(t, frozenset())
    with pytest.raises(ValueError):
        stock_kernel.sched_setaffinity(t, frozenset({99}))


def test_set_nice_bounds(stock_kernel):
    kernel = Kernel(generic_smp(2), KernelConfig.stock(), seed=0)
    t = exiting(kernel, "t", work=msecs(50))
    kernel.sim.run_until(5)
    kernel.set_nice(t, -10)
    assert t.nice == -10
    with pytest.raises(ValueError):
        kernel.set_nice(t, 30)


def test_sched_yield_requires_running(stock_kernel):
    t = stock_kernel.spawn("y", work=msecs(10), on_segment_end=lambda: None)
    t.on_segment_end = lambda: stock_kernel.exit(t)
    if t.state != TaskState.RUNNING:
        with pytest.raises(ValueError):
            stock_kernel.sched_yield(t)


def test_with_overrides_replaces_fields():
    cfg = KernelConfig.hpl()
    cfg2 = cfg.with_overrides(variant="stock")
    assert cfg2.variant == "stock"
    assert cfg.variant == "hpl"  # frozen original unchanged


def test_runnable_counts_reports_all_cpus(stock_kernel, js22):
    counts = stock_kernel.runnable_counts()
    assert sorted(counts) == list(range(js22.n_cpus))


def test_perf_session_factory(stock_kernel):
    s = stock_kernel.perf_session()
    s.open(stock_kernel.now)
    assert s.close(stock_kernel.now + 1).wall_time == 1


def test_block_soon_defers_until_scheduled():
    kernel = Kernel(generic_smp(1), KernelConfig.stock(), seed=0)
    order = []
    a = exiting(kernel, "a", work=msecs(5))
    b = kernel.spawn("b", work=msecs(5), on_segment_end=lambda: None)
    b.on_segment_end = lambda: kernel.exit(b)
    waiting = b if b.state == TaskState.RUNNABLE else a
    kernel.block_soon(waiting, lambda: order.append(("blocked", kernel.now)))
    assert waiting.state == TaskState.RUNNABLE  # still queued
    kernel.sim.run_until(msecs(20))
    assert order and waiting.state == TaskState.SLEEPING
