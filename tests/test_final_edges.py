"""Final edge-case batch: balancer backoff, engine horizon semantics,
cluster RT regime, custom-built machines end to end."""

import pytest

from repro.apps.spmd import Program
from repro.cluster.multinode import run_cluster_job
from repro.kernel.daemons import quiet_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.sim.engine import Simulator
from repro.topology.cache import CacheHierarchy, CacheLevel, SharingScope
from repro.topology.machine import Machine
from repro.units import msecs, secs

L1 = CacheLevel("L1", size_kib=64, shared_by=SharingScope.CORE)
L1_ONLY = CacheHierarchy(levels=(L1,))


def test_balancer_backoff_reduces_attempts_when_balanced():
    """With nothing to balance, the exponential backoff caps the periodic
    balancer's event rate."""
    kernel = Kernel(
        Machine(1, 4, 1, L1_ONLY, smt_throughput=(1.0,), name="spec-1x4x1"),
        KernelConfig.stock(), seed=0,
    )
    kernel.sim.at(secs(5), lambda: kernel.sim.stop())
    kernel.sim.run_until(secs(5))
    attempts = kernel.balancer.stats["periodic_attempts"]
    # Without backoff, 4 CPUs x 5s / 32ms base would be ~600+ attempts; the
    # idle-balanced system backs off to the 32x cap.
    assert 0 < attempts < 300


def test_balancer_interval_grows_with_backoff():
    kernel = Kernel(
        Machine(1, 2, 1, L1_ONLY, smt_throughput=(1.0,), name="spec-1x2x1"),
        KernelConfig.stock(), seed=0,
    )
    first = kernel.balancer._next_interval(0)
    kernel.balancer._backoff[(0, "core")] = 32
    backed = kernel.balancer._next_interval(0)
    assert backed > 10 * first


def test_engine_event_exactly_at_horizon_fires():
    sim = Simulator()
    fired = []
    sim.at(100, lambda: fired.append(1))
    sim.run_until(horizon=100)
    assert fired == [1]


def test_engine_resume_preserves_pending_events():
    sim = Simulator()
    fired = []
    sim.at(50, lambda: fired.append("a"))
    sim.at(150, lambda: fired.append("b"))
    sim.run_until(horizon=100)
    assert fired == ["a"] and sim.now == 100
    sim.run_until()
    assert fired == ["a", "b"] and sim.now == 150


def test_cluster_rt_regime_runs():
    program = Program.iterative(
        name="rtmn", n_iters=4, iter_work=msecs(5), init_ops=1, finalize_ops=0
    )
    result = run_cluster_job(program, 2, regime="rt", seed=4,
                             noise=quiet_profile(), nprocs_per_node=4)
    assert result.app_time > 0


def test_spec_machine_full_pipeline():
    """A machine built outside the presets goes through the whole HPL story."""
    from repro.apps.mpi import MpiApplication
    from repro.kernel.task import SchedPolicy

    machine = Machine(
        2, 2, 2,
        CacheHierarchy(levels=(L1, CacheLevel("L2", size_kib=1024, shared_by=SharingScope.CORE))),
        smt_throughput=(1.0, 0.7), name="custom",
    )
    kernel = Kernel(machine, KernelConfig.hpl(), seed=0)
    program = Program.iterative(
        name="spec", n_iters=3, iter_work=msecs(4), init_ops=2, finalize_ops=0,
        startup_work=msecs(4),
    )
    app = MpiApplication(kernel, program, 8, on_complete=lambda a: kernel.sim.stop())
    app.launch(policy=SchedPolicy.HPC)
    kernel.sim.run_until(secs(120))
    assert app.done
    assert sorted(t.last_cpu for t in app.rank_tasks()) == list(range(8))


def test_idle_system_stays_quiet():
    """A booted kernel with no work processes only housekeeping events and
    counts no context switches."""
    kernel = Kernel(
        Machine(1, 2, 1, L1_ONLY, smt_throughput=(1.0,), name="spec-1x2x1"),
        KernelConfig.stock(), seed=0,
    )
    kernel.sim.at(secs(2), lambda: kernel.sim.stop())
    kernel.sim.run_until(secs(2))
    assert kernel.perf.context_switches == 0
    assert kernel.perf.cpu_migrations == 0


def test_hpl_kernel_boots_without_rt_tasks():
    kernel = Kernel(
        Machine(1, 2, 2, L1_ONLY, smt_throughput=(1.0, 0.6), name="spec-1x2x2"),
        KernelConfig.hpl(), seed=0,
    )
    counts = kernel.runnable_counts()
    assert all(v == 0 for v in counts.values())
