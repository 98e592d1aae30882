"""Tests for the daemon population and storms."""

import pytest

from repro.kernel.daemons import (
    DaemonSet,
    DaemonSpec,
    NoiseProfile,
    StormSpec,
    cluster_node_profile,
    quiet_profile,
)
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.task import TaskState
from repro.topology.presets import generic_smp, power6_js22
from repro.units import msecs, secs


def make_kernel(machine=None, seed=0):
    return Kernel(machine or generic_smp(2), KernelConfig.stock(), seed=seed)


# ----------------------------------------------------------------- daemons


def test_spec_validation():
    with pytest.raises(ValueError):
        DaemonSpec("x", period_mean=0, duration_median=10, duration_sigma=0.5)
    with pytest.raises(ValueError):
        DaemonSpec("x", period_mean=10, duration_median=10, duration_sigma=-1)
    with pytest.raises(ValueError):
        DaemonSpec("x", period_mean=10, duration_median=10, duration_sigma=0, count=0)


def test_storm_spec_validation():
    with pytest.raises(ValueError):
        StormSpec(interval_mean=0)
    with pytest.raises(ValueError):
        StormSpec(workers_median=0)
    with pytest.raises(ValueError):
        StormSpec(spawn_gap_mean=0)


def test_per_cpu_daemons_are_pinned():
    kernel = make_kernel(power6_js22())
    profile = NoiseProfile(
        daemons=(DaemonSpec("kd", period_mean=msecs(10), duration_median=100,
                            duration_sigma=0.1, per_cpu=True),),
    )
    ds = DaemonSet(kernel, profile)
    ds.start()
    assert len(ds.tasks) == 8
    for i, t in enumerate(ds.tasks):
        assert t.affinity == frozenset({i})


def test_daemon_burst_cycle_runs():
    kernel = make_kernel()
    profile = NoiseProfile(
        daemons=(DaemonSpec("d", period_mean=msecs(2), duration_median=100,
                            duration_sigma=0.1, count=1),),
    )
    ds = DaemonSet(kernel, profile)
    ds.start()
    kernel.sim.run_until(msecs(100))
    assert ds.bursts >= 10  # ~1 burst every ~2ms
    daemon = ds.tasks[0]
    assert daemon.sum_exec_runtime > 0
    assert daemon.nr_voluntary_switches >= 10


def test_quiet_profile_has_nothing():
    kernel = make_kernel()
    ds = DaemonSet(kernel, quiet_profile())
    ds.start()
    kernel.sim.run_until(msecs(100))
    assert ds.bursts == 0 and ds.storms == 0


def test_cluster_profile_instantiates():
    kernel = make_kernel(power6_js22())
    ds = DaemonSet(kernel, cluster_node_profile())
    ds.start()
    kernel.sim.run_until(secs(2))
    assert ds.bursts > 0
    # Per-cpu kworker+ksoftirqd on 8 cpus plus floating daemons.
    assert len(ds.tasks) == 8 + 8 + 3 + 2 + 1 + 1


def test_double_start_rejected():
    kernel = make_kernel()
    ds = DaemonSet(kernel, quiet_profile())
    ds.start()
    with pytest.raises(RuntimeError):
        ds.start()


def test_storm_spawns_wave_of_workers():
    kernel = make_kernel(power6_js22())
    storm = StormSpec(
        interval_mean=msecs(300),
        workers_median=6,
        workers_sigma=0.0,
        duration_median=msecs(30),
        duration_sigma=0.0,
        spawn_gap_mean=msecs(1),
    )
    ds = DaemonSet(kernel, NoiseProfile(storm=storm))
    ds.start()
    kernel.sim.run_until(secs(3))
    assert ds.storms >= 1
    assert len(ds.storm_tasks) >= 6
    # The first wave's workers have long exited.
    first_wave = ds.storm_tasks[:6]
    assert all(w.state == TaskState.EXITED for w in first_wave)


def test_daemon_determinism():
    counts = []
    for _ in range(2):
        kernel = make_kernel(power6_js22(), seed=77)
        ds = DaemonSet(kernel, cluster_node_profile())
        ds.start()
        kernel.sim.run_until(secs(1))
        counts.append((ds.bursts, kernel.perf.context_switches))
    assert counts[0] == counts[1]
