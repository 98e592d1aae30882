"""Scheduler invariant sanitizer: enablement, clean runs, violation rules.

A clean kernel under the sanitizer must (a) actually perform checks and
(b) produce bit-identical results to an unsanitized run of the same seed —
the observer is passive.  The violation tests drive the checker directly
with corrupted state, since a correct scheduler never produces any.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_nas
from repro.kernel import Kernel, KernelConfig
from repro.kernel.invariants import (
    INVARIANT_RULES,
    SANITIZE_ENV_VAR,
    InvariantViolation,
    SchedInvariantChecker,
    attach_sanitizer,
    check_books,
    sanitizer_enabled,
)
from repro.kernel.task import TaskState
from repro.parallel import classify_failure
from repro.topology.presets import generic_smp, power6_js22
from repro.units import msecs, secs


# ---------------------------------------------------------------- enablement


def test_sanitizer_enabled_env_matrix():
    assert not sanitizer_enabled({})
    assert not sanitizer_enabled({SANITIZE_ENV_VAR: ""})
    assert not sanitizer_enabled({SANITIZE_ENV_VAR: "0"})
    assert sanitizer_enabled({SANITIZE_ENV_VAR: "1"})
    assert sanitizer_enabled({SANITIZE_ENV_VAR: "yes"})


def test_attach_sanitizer_respects_env(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
    k = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    assert k.sanitizer is None
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    k = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    assert isinstance(k.sanitizer, SchedInvariantChecker)
    assert k.sanitizer._on_switch in k.core.switch_hooks
    assert k.sanitizer._on_wakeup in k.core.wakeup_hooks
    assert k.sanitizer._on_migration in k.perf.migration_observers
    assert k.sanitizer._check_timers in k.sim._trace_hooks
    assert k.sanitizer._check_smt_busy in k.sim._trace_hooks


# ---------------------------------------------------------------- clean runs


@pytest.mark.parametrize("regime", ["stock", "hpl"])
def test_clean_run_checks_fire_and_results_are_bit_identical(monkeypatch, regime):
    monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
    bare = run_nas("is", "A", regime, seed=7)
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    sanitized = run_nas("is", "A", regime, seed=7)
    assert sanitized.app_time_s == bare.app_time_s
    assert sanitized.wall_time == bare.wall_time
    assert sanitized.context_switches == bare.context_switches
    assert sanitized.cpu_migrations == bare.cpu_migrations


def test_clean_kernel_accumulates_checks(monkeypatch, drive):
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    from repro.apps.mpiexec import LaunchMode, MpiJob
    from repro.apps.spmd import Program
    from repro.units import msecs

    k = Kernel(power6_js22(), KernelConfig.stock(), seed=2)
    program = Program.iterative(
        name="san", n_iters=3, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )
    MpiJob(k, program, nprocs=4, mode=LaunchMode.CFS).start()
    drive(k)
    assert k.sanitizer is not None
    assert k.sanitizer.checks > 0


# ----------------------------------------------------------------- violation


def _checker(monkeypatch) -> SchedInvariantChecker:
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    k = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    assert k.sanitizer is not None
    return k.sanitizer


def test_violation_message_names_rule_time_and_cpu():
    err = InvariantViolation("class-order", "cfs picked over hpc", time=42, cpu=3)
    assert err.rule == "class-order"
    assert "class-order" in str(err)
    assert "t=42us" in str(err)
    assert "cpu3" in str(err)
    assert "class-order" in INVARIANT_RULES


def test_affinity_violation_on_pick(monkeypatch):
    from repro.kernel.task import SchedPolicy, Task

    checker = _checker(monkeypatch)
    task = Task(9001, "pinned-elsewhere", SchedPolicy.NORMAL,
                affinity=frozenset({1}))
    with pytest.raises(InvariantViolation) as excinfo:
        checker._check_pick(0, task)  # picked on a CPU its mask forbids
    assert excinfo.value.rule == "affinity"


def test_monotone_clock_violation(monkeypatch):
    from repro.kernel.task import SchedPolicy, Task

    checker = _checker(monkeypatch)
    task = Task(9002, "clock", SchedPolicy.NORMAL)
    task.sum_exec_runtime = 100
    checker._check_clock(task)
    task.sum_exec_runtime = 50  # corrupt: accounting went backwards
    with pytest.raises(InvariantViolation) as excinfo:
        checker._check_clock(task)
    assert excinfo.value.rule == "monotone-clock"


def test_lost_task_violation(monkeypatch):
    checker = _checker(monkeypatch)
    kernel = checker.kernel
    from repro.kernel.task import SchedPolicy, Task, TaskState

    ghost = Task(9999, "ghost", SchedPolicy.NORMAL)
    ghost.state = TaskState.RUNNABLE  # runnable, but on no queue anywhere
    kernel.tasks[ghost.pid] = ghost
    with pytest.raises(InvariantViolation) as excinfo:
        checker._check_books()
    assert excinfo.value.rule == "no-lost-task"


def _busy_kernel(machine, n_tasks: int) -> Kernel:
    """A bare kernel running *n_tasks* workers that exit when done."""
    kernel = Kernel(machine, KernelConfig.stock(), seed=0)
    for i in range(n_tasks):
        t = kernel.spawn(f"w{i}", work=msecs(5), on_segment_end=lambda: None)
        t.on_segment_end = (lambda tt=t: kernel.exit(tt))
    return kernel


def test_check_books_clean_kernel():
    kernel = _busy_kernel(power6_js22(), 4)
    hooks = len(kernel.core.switch_hooks)
    check_books(kernel)
    kernel.sim.run_until(msecs(3))
    check_books(kernel)
    kernel.sim.run_until(secs(1))
    check_books(kernel)
    assert len(kernel.core.switch_hooks) == hooks  # a one-off check hooks nothing


def _corrupt_curr_state(running, queued):
    running.state = TaskState.SLEEPING


def _corrupt_curr_cpu(running, queued):
    running.cpu = 1 - running.cpu  # the other CPU of a 2-CPU machine


def _corrupt_queued_state(running, queued):
    queued.state = TaskState.SLEEPING


def _corrupt_exited_curr(running, queued):
    running.state = TaskState.EXITED


@pytest.mark.parametrize("corrupt,rule", [
    (_corrupt_curr_state, "curr-running"),
    (_corrupt_curr_cpu, "curr-running"),
    (_corrupt_queued_state, "queued-runnable"),
    (_corrupt_exited_curr, "no-exited-curr"),
], ids=["curr-wrong-state", "curr-claims-other-cpu", "queued-not-runnable",
        "exited-still-current"])
def test_check_books_catches_corruption(monkeypatch, corrupt, rule):
    monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
    kernel = _busy_kernel(generic_smp(2), 3)  # two running, one queued
    running = next(rq.curr for rq in kernel.core.rqs if not rq.curr.is_idle)
    queued = next(
        t for t in kernel.tasks.values()
        if t.state == TaskState.RUNNABLE and not t.is_idle
    )
    check_books(kernel)
    corrupt(running, queued)
    with pytest.raises(InvariantViolation) as excinfo:
        check_books(kernel)
    assert excinfo.value.rule == rule
    assert rule in INVARIANT_RULES


def test_class_order_violation(monkeypatch):
    from repro.kernel.task import SchedPolicy, Task

    checker = _checker(monkeypatch)
    rq = checker.kernel.core.rqs[0]
    high = Task(9003, "rt-waiting", SchedPolicy.FIFO, rt_priority=10)
    rq.queue_for(high).push(high)  # RT work is runnable on cpu0...
    low = Task(9004, "cfs-task", SchedPolicy.NORMAL)
    with pytest.raises(InvariantViolation) as excinfo:
        checker._check_pick(0, low)  # ...but a CFS task is being picked
    assert excinfo.value.rule == "class-order"


def _running_worker(checker: SchedInvariantChecker):
    """Spawn a task with work on the checker's kernel; return its run queue."""
    kernel = checker.kernel
    task = kernel.spawn("worker", work=10_000, on_segment_end=lambda: None)
    rq = kernel.core.rqs[task.cpu]
    assert rq.curr is task and rq.timer_event is not None
    return rq


def test_timer_armed_violation(monkeypatch):
    checker = _checker(monkeypatch)
    rq = _running_worker(checker)
    checker._check_timers(0, "probe")  # armed: clean
    rq.timer_event.cancel()  # corrupt: the running task's timer is lost
    with pytest.raises(InvariantViolation) as excinfo:
        checker._check_timers(0, "probe")
    assert excinfo.value.rule == "timer-armed"
    assert excinfo.value.cpu == rq.cpu_id


def test_timer_armed_violation_fires_before_next_event(monkeypatch):
    checker = _checker(monkeypatch)
    kernel = checker.kernel
    rq = _running_worker(checker)
    rq.timer_event.cancel()
    rq.timer_event = None
    kernel.sim.after(1, lambda: None, label="probe")
    with pytest.raises(InvariantViolation) as excinfo:
        kernel.sim.run_until(10)
    assert excinfo.value.rule == "timer-armed"
    assert "probe" in str(excinfo.value)


def test_handler_cleared_violation(monkeypatch):
    checker = _checker(monkeypatch)
    rq = _running_worker(checker)
    core = checker.kernel.core
    core.handler_task, core.handler_rq = rq.curr, rq  # corrupt: left set
    with pytest.raises(InvariantViolation) as excinfo:
        checker._check_timers(0, "probe")
    assert excinfo.value.rule == "handler-cleared"


def test_smt_busy_violation_fires_before_next_event(monkeypatch):
    checker = _checker(monkeypatch)
    kernel = checker.kernel
    rq = _running_worker(checker)
    checker._check_smt_busy(0, "probe")  # kept in step: clean
    core = kernel.core
    core._core_busy[core._core_id_of[rq.cpu_id]] += 1  # corrupt the count
    kernel.sim.after(1, lambda: None, label="probe")
    with pytest.raises(InvariantViolation) as excinfo:
        kernel.sim.run_until(10)
    assert excinfo.value.rule == "smt-busy"
    assert "probe" in str(excinfo.value)
    assert "smt-busy" in INVARIANT_RULES


# --------------------------------------------------- supervisor interaction


def test_supervisor_classifies_violation_fatal():
    assert classify_failure(InvariantViolation("affinity", "x")) == "fatal"
