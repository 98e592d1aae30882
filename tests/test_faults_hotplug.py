"""CPU hotplug: forced evacuation, parking, re-onlining, placement filters."""

import pytest

from repro.kernel.invariants import check_books
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.task import SchedPolicy, TaskState
from repro.topology.presets import power6_js22


def _kernel(variant="stock", seed=0):
    config = KernelConfig.stock() if variant == "stock" else KernelConfig.hpl()
    return Kernel(power6_js22(), config, seed=seed)


def _spawn_worker(k, name, **kwargs):
    done = []
    task = k.spawn(name, work=500_000, on_segment_end=lambda: None, **kwargs)
    task.on_segment_end = lambda t=task: (k.exit(t), done.append(name))
    return task, done


def _no_strays(kernel, cpu_id):
    """No non-idle task may be RUNNING or RUNNABLE on an offline CPU."""
    return [
        t.name
        for t in kernel.tasks.values()
        if not t.is_idle
        and t.state in (TaskState.RUNNING, TaskState.RUNNABLE)
        and t.cpu == cpu_id
    ]


@pytest.mark.parametrize("variant", ["stock", "hpl"])
def test_offline_evacuates_running_and_queued(variant):
    k = _kernel(variant)
    finished = []
    for i in range(10):  # oversubscribe so CPUs have queued tasks too
        t = k.spawn(f"t{i}", work=400_000, on_segment_end=lambda: None)
        t.on_segment_end = lambda t=t: (k.exit(t), finished.append(t.name))
    k.sim.run_until(10_000)
    before = k.perf.cpu_migrations
    report = k.offline_cpu(2)
    assert not k.core.cpu_is_online(2)
    assert _no_strays(k, 2) == []
    check_books(k)
    # Every evacuated task cost a migration (queued or active).
    assert k.perf.cpu_migrations >= before + len(report.migrated)
    k.sim.run_until(10_000_000)
    assert len(finished) == 10


def test_pinned_task_parks_and_returns_on_online():
    k = _kernel("stock")
    _, done = _spawn_worker(k, "pinned", affinity=frozenset({3}))
    k.sim.run_until(5_000)
    k.offline_cpu(3)
    pinned = next(t for t in k.tasks.values() if t.name == "pinned")
    assert pinned.state == TaskState.SLEEPING  # parked: nowhere legal to run
    k.sim.run_until(50_000)
    assert pinned.state == TaskState.SLEEPING  # still parked while offline
    woken = k.online_cpu(3)
    assert woken == 1
    k.sim.run_until(10_000_000)
    assert done == ["pinned"]


def test_wake_while_only_cpu_offline_parks_instead():
    k = _kernel("stock")
    task, done = _spawn_worker(k, "io", affinity=frozenset({1}))
    k.sim.run_until(2_000)
    k.block(task)
    k.offline_cpu(1)
    k.wake(task)  # must not land on the dead CPU
    assert task.state == TaskState.SLEEPING
    assert _no_strays(k, 1) == []
    k.online_cpu(1)
    k.sim.run_until(10_000_000)
    assert done == ["io"]


def test_cannot_offline_last_cpu():
    k = _kernel("stock")
    for cpu in range(1, k.machine.n_cpus):
        k.offline_cpu(cpu)
    with pytest.raises(ValueError):
        k.offline_cpu(0)


def test_offline_twice_and_online_online_raise():
    k = _kernel("stock")
    k.offline_cpu(4)
    with pytest.raises(ValueError):
        k.offline_cpu(4)
    k.online_cpu(4)
    with pytest.raises(ValueError):
        k.online_cpu(4)


def test_set_task_cpu_rejects_offline_destination():
    k = _kernel("stock")
    task, _ = _spawn_worker(k, "t")
    k.sim.run_until(1_000)
    k.offline_cpu(5) if task.cpu != 5 else k.offline_cpu(6)
    dead = 5 if task.cpu != 5 else 6
    with pytest.raises(ValueError):
        k.core.set_task_cpu(task, dead)


def test_hpl_fork_placement_skips_offline_cpus():
    k = _kernel("hpl")
    k.offline_cpu(0)
    k.offline_cpu(4)
    tasks = [
        k.spawn(f"h{i}", policy=SchedPolicy.HPC, work=100_000,
                on_segment_end=lambda: None)
        for i in range(6)
    ]
    assert all(t.cpu not in (0, 4) for t in tasks)
    # One task per remaining core before any SMT doubling.
    assert len({t.cpu for t in tasks}) == 6


def test_stock_fork_placement_skips_offline_cpus():
    k = _kernel("stock")
    k.offline_cpu(7)
    tasks = [
        k.spawn(f"t{i}", work=100_000, on_segment_end=lambda: None)
        for i in range(16)
    ]
    assert all(t.cpu != 7 for t in tasks)


def test_evacuation_under_hpl_uses_topology_placer():
    k = _kernel("hpl")
    ranks = [
        k.spawn(f"h{i}", policy=SchedPolicy.HPC, work=2_000_000,
                on_segment_end=lambda: None)
        for i in range(4)
    ]
    k.sim.run_until(5_000)
    victim_cpu = ranks[0].cpu
    report = k.offline_cpu(victim_cpu)
    moved = report.migrated[0]
    # The evacuee lands on a free core (no doubling up while cores remain),
    # exactly where the fork placer would have put it.
    assert moved.cpu != victim_cpu
    occupied = [r.cpu for r in ranks if r is not moved]
    assert moved.cpu not in occupied
    check_books(k)


def test_scheduled_hotplug_via_at():
    k = _kernel("stock")
    _, done = _spawn_worker(k, "t")
    assert k.offline_cpu(6, at=20_000) is None  # deferred: no report yet
    k.online_cpu(6, at=60_000)
    k.sim.run_until(30_000)
    assert not k.core.cpu_is_online(6)
    k.sim.run_until(10_000_000)
    assert k.core.cpu_is_online(6)
    assert done == ["t"]


def test_online_cpu_ids_reflect_state():
    k = _kernel("stock")
    assert k.online_cpus() == list(range(8))
    k.offline_cpu(3)
    assert k.online_cpus() == [0, 1, 2, 4, 5, 6, 7]
