"""Scheduler invariant sanitizer — the simulator's lockdep/KASAN analog.

A scheduling bug in the *model* silently corrupts every statistic built on
top of it, and a retry layer that papers over such a bug would be worse
than no retry layer at all.  This module makes correctness violations loud:
an opt-in :class:`SchedInvariantChecker` attaches to the scheduler core's
hook points (context switches, wakeups, migrations) and asserts, at every
one of them, the invariants the paper's scheduler design rests on:

* **class order** — no task of a lower-priority class runs while a
  higher-priority class has runnable work on that CPU (in particular, no
  CFS task is picked while an HPC task is runnable there — the §IV pick
  loop's defining property);
* **affinity** — a task is never enqueued on, migrated to, or run on a CPU
  its affinity mask forbids, nor on an offline CPU;
* **bookkeeping** — no task is lost (RUNNABLE but on no queue) or
  double-enqueued (on two queues, or queued while running) across all run
  queues; each CPU's current task is RUNNING on that CPU (and never
  EXITED), and every queued task is RUNNABLE on its queue's CPU;
* **monotone clocks** — per-task ``sum_exec_runtime`` and ``last_ran_at``
  never go backwards;
* **armed timers** — before every event, each CPU whose running task has
  work or a timeslice holds a live timer at or after the current instant,
  and no segment-handler marker is left set (the scheduler core arms a
  CPU timer once per handler run; see ``SchedCore._program``);
* **SMT busy count** — before every event, each core's incrementally kept
  busy-thread count (what the execution rate is looked up with) equals the
  count of its hardware threads running a non-idle task.

Violations raise :class:`InvariantViolation` immediately, with the rule
name, simulated time and CPU.  The supervised campaign layer
(:mod:`repro.parallel.supervisor`) classifies :class:`InvariantViolation`
as **fatal**: it is never retried, because a correctness violation is not
transient — retrying it would only launder a wrong result into the
statistics.

Enablement mirrors the kernel sanitizers: set ``REPRO_SANITIZE=1`` in the
environment and every :class:`~repro.kernel.kernel.Kernel` boots with a
checker attached (CI runs the tier-1 suite once this way).  Attachment is
passive — the checker only reads scheduler state — so a sanitized run's
results are bit-identical to a bare run of the same seed.
:func:`check_books` runs the bookkeeping rules once over any kernel, e.g.
a finished run.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.kernel.task import Task, TaskState

__all__ = [
    "SANITIZE_ENV_VAR",
    "sanitizer_enabled",
    "InvariantViolation",
    "SchedInvariantChecker",
    "attach_sanitizer",
    "check_books",
]

#: Environment variable enabling the sanitizer (any value but "" / "0").
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: The rules the checker asserts, for documentation and error messages.
INVARIANT_RULES = (
    "class-order",      # no lower class picked while a higher class has work
    "affinity",         # placement always respects the task's cpumask
    "cpu-online",       # nothing is enqueued on / run on an offline CPU
    "no-lost-task",     # every RUNNABLE task is on exactly one queue
    "no-double-enqueue",  # no task on two queues, or queued while running
    "curr-running",     # each CPU's current task is RUNNING on that CPU
    "no-exited-curr",   # no EXITED task is any CPU's current task
    "queued-runnable",  # every queued task is RUNNABLE on its queue's CPU
    "monotone-clock",   # per-task runtime accounting never goes backwards
    "timer-armed",      # a running task with work or a slice has a live timer
    "handler-cleared",  # no segment-handler marker survives its handler
    "smt-busy",         # each core's busy count matches its threads' rq.curr
)


def sanitizer_enabled(env: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for a checker on every kernel."""
    value = (env if env is not None else os.environ).get(SANITIZE_ENV_VAR, "")
    return value not in ("", "0")


class InvariantViolation(RuntimeError):
    """A scheduler invariant was broken.  Always fatal, never retried.

    Carries enough identity (rule, simulated time, CPU, and — when the
    failing run is a campaign repetition — its seed and spec digest via the
    wrapping :class:`~repro.parallel.engine.CampaignRunError`) to replay the
    exact decision sequence that broke it.
    """

    def __init__(
        self,
        rule: str,
        detail: str,
        *,
        time: Optional[int] = None,
        cpu: Optional[int] = None,
    ) -> None:
        self.rule = rule
        self.detail = detail
        self.time = time
        self.cpu = cpu
        where = ""
        if time is not None:
            where += f" at t={time}us"
        if cpu is not None:
            where += f" on cpu{cpu}"
        super().__init__(f"scheduler invariant {rule!r} violated{where}: {detail}")


class SchedInvariantChecker:
    """Hook-driven sanitizer asserting scheduler invariants on a live kernel.

    Attaches to ``switch_hooks``/``wakeup_hooks`` and the perf fabric's
    ``migration_observers`` so every pick, enqueue and migration is checked
    the moment it happens — not post-mortem, when the corrupting decision is
    long gone — and to the simulator's trace hooks, so the CPU timers are
    audited before every event (:meth:`attach`).
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.core = kernel.core
        #: Per-pid (sum_exec_runtime, last_ran_at) snapshots for the
        #: monotone-clock rule.
        self._clocks: Dict[int, Tuple[int, int]] = {}
        #: Total individual invariant checks performed (diagnostics).
        self.checks = 0

    def attach(self) -> "SchedInvariantChecker":
        """Hook every rule into the kernel; returns the checker."""
        kernel = self.kernel
        self.core.switch_hooks.append(self._on_switch)
        self.core.wakeup_hooks.append(self._on_wakeup)
        kernel.perf.migration_observers.append(self._on_migration)
        kernel.sim.add_trace_hook(self._check_timers)
        kernel.sim.add_trace_hook(self._check_smt_busy)
        return self

    # ------------------------------------------------------------- failures

    def _fail(self, rule: str, detail: str, *, cpu: Optional[int] = None) -> None:
        raise InvariantViolation(
            rule, detail, time=self.kernel.sim.now, cpu=cpu
        )

    # ---------------------------------------------------------------- hooks

    def _on_wakeup(self, time: int, cpu: int, task: Task, is_wakeup: bool) -> None:
        """Fired as a task becomes runnable, before it is enqueued."""
        self.checks += 1
        if not task.allows_cpu(cpu):
            self._fail(
                "affinity",
                f"{task.name} (pid {task.pid}) enqueued on cpu{cpu} outside "
                f"its affinity mask {sorted(task.affinity or ())}",
                cpu=cpu,
            )
        if not self.core.cpu_online[cpu]:
            self._fail(
                "cpu-online",
                f"{task.name} (pid {task.pid}) enqueued on offline cpu{cpu}",
                cpu=cpu,
            )

    def _on_migration(self, time: int, pid: int, src: int, dst: int) -> None:
        """Fired on every counted cpu-migration."""
        self.checks += 1
        task = self.kernel.tasks.get(pid)
        if task is None:
            return
        if not task.allows_cpu(dst):
            self._fail(
                "affinity",
                f"{task.name} (pid {pid}) migrated cpu{src}->cpu{dst} outside "
                f"its affinity mask {sorted(task.affinity or ())}",
                cpu=dst,
            )
        if not self.core.cpu_online[dst]:
            self._fail(
                "cpu-online",
                f"{task.name} (pid {pid}) migrated to offline cpu{dst}",
                cpu=dst,
            )

    def _on_switch(self, time: int, cpu: int, prev: Task, next_task: Task) -> None:
        """Fired on every context switch, right after pick-next decided."""
        self._check_pick(cpu, next_task)
        self._check_clock(prev)
        self._check_clock(next_task)
        self._check_books(picked=next_task)

    # ---------------------------------------------------------------- rules

    def _check_timers(self, time: int, label: str) -> None:
        """Fired (as a trace hook) before every event.  Between events no
        segment handler is running, so no handler marker may be set, and
        every CPU whose running task has work or a timeslice must hold a
        live timer that has not fallen behind the clock (a lost arm would
        leave that task running forever)."""
        self.checks += 1
        core = self.core
        if core.handler_task is not None or core.handler_rq is not None:
            self._fail(
                "handler-cleared",
                f"segment-handler marker for {core.handler_task!r} still set "
                f"before event {label!r}",
            )
        for rq in core.rqs:
            p = rq.curr
            if p is None or p.is_idle:
                continue
            if p.spinning or p.remaining_work is None:
                cls, queue, _ = rq._serving[p.policy]
                if cls.task_slice(queue, p) is None:
                    continue
            event = rq.timer_event
            if event is None or event.cancelled or event.time < time:
                self._fail(
                    "timer-armed",
                    f"{p.name} (pid {p.pid}) runs with work or a slice but "
                    f"its CPU timer is {event!r} before event {label!r}",
                    cpu=rq.cpu_id,
                )

    def _check_smt_busy(self, time: int, label: str) -> None:
        """Fired (as a trace hook) before every event: the per-core busy
        count ``SchedCore._base_rate`` reads must equal a walk over the
        core's hardware threads."""
        self.checks += 1
        core = self.core
        for cpu_id, rqs in enumerate(core._core_rqs):
            walked = 0
            for rq in rqs:
                curr = rq.curr
                if curr is not None and not curr.is_idle:
                    walked += 1
            kept = core._core_busy[core._core_id_of[cpu_id]]
            if kept != walked:
                self._fail(
                    "smt-busy",
                    f"core {core._core_id_of[cpu_id]} counts {kept} busy "
                    f"thread(s) but {walked} run a task before event {label!r}",
                    cpu=cpu_id,
                )

    def _check_pick(self, cpu: int, picked: Task) -> None:
        """Class order + placement legality of the task about to run."""
        self.checks += 1
        rq = self.core.rqs[cpu]
        if not picked.allows_cpu(cpu):
            self._fail(
                "affinity",
                f"{picked.name} (pid {picked.pid}) picked on cpu{cpu} outside "
                f"its affinity mask {sorted(picked.affinity or ())}",
                cpu=cpu,
            )
        picked_rank = rq.class_rank(rq.class_of(picked))
        for rank, cls in enumerate(rq.classes):
            if rank >= picked_rank:
                break
            if rq.queues[cls.name].nr_running > 0:
                self._fail(
                    "class-order",
                    f"{picked.name} ({rq.class_of(picked).name}) picked while "
                    f"{rq.queues[cls.name].nr_running} {cls.name}-class "
                    f"task(s) are runnable",
                    cpu=cpu,
                )

    def _check_clock(self, task: Task) -> None:
        """Per-task accounting clocks only ever move forward."""
        self.checks += 1
        seen = self._clocks.get(task.pid)
        now = (task.sum_exec_runtime, task.last_ran_at)
        if seen is not None:
            if now[0] < seen[0]:
                self._fail(
                    "monotone-clock",
                    f"{task.name} (pid {task.pid}) sum_exec_runtime went "
                    f"backwards: {seen[0]} -> {now[0]}",
                )
            if now[1] < seen[1]:
                self._fail(
                    "monotone-clock",
                    f"{task.name} (pid {task.pid}) last_ran_at went "
                    f"backwards: {seen[1]} -> {now[1]}",
                )
        self._clocks[task.pid] = now

    def _check_books(self, picked: Optional[Task] = None) -> None:
        """No task lost or double-enqueued across all run queues; every
        ``rq.curr`` RUNNING on its CPU, every queued task RUNNABLE on its.

        *picked* is the task the in-progress switch is installing: it has
        been removed from its class queue but is not yet ``rq.curr``, so it
        is exempt from the lost-task rule for this check, and a CPU may be
        between two current tasks.
        """
        self.checks += 1
        seen: Dict[int, str] = {}
        for rq in self.core.rqs:
            cpu = rq.cpu_id
            curr = rq.curr
            if curr is None:
                if picked is None:
                    self._fail("curr-running", "no current task, not even idle", cpu=cpu)
            elif curr.state != TaskState.RUNNING or curr.cpu != cpu:
                self._fail(
                    "no-exited-curr" if curr.state == TaskState.EXITED else "curr-running",
                    f"{curr.name} (pid {curr.pid}) is rq.curr in state "
                    f"{curr.state} claiming cpu {curr.cpu}",
                    cpu=cpu,
                )
            elif not curr.is_idle:
                seen[curr.pid] = f"running on cpu{cpu}"
            for name, queue in rq.queues.items():
                for task in queue.queued_tasks():
                    where = f"queued on cpu{cpu}/{name}"
                    if task.pid in seen:
                        self._fail(
                            "no-double-enqueue",
                            f"{task.name} (pid {task.pid}) is {where} and "
                            f"also {seen[task.pid]}",
                            cpu=cpu,
                        )
                    if task is curr:
                        self._fail(
                            "no-double-enqueue",
                            f"{task.name} (pid {task.pid}) is rq.curr and "
                            f"also {where}",
                            cpu=cpu,
                        )
                    if task.state != TaskState.RUNNABLE or task.cpu != cpu:
                        self._fail(
                            "queued-runnable",
                            f"{task.name} (pid {task.pid}) is {where} in state "
                            f"{task.state} claiming cpu {task.cpu}",
                            cpu=cpu,
                        )
                    seen[task.pid] = where
        for task in self.kernel.tasks.values():
            if task.is_idle or task is picked:
                continue
            if task.state == TaskState.RUNNABLE and task.pid not in seen:
                self._fail(
                    "no-lost-task",
                    f"{task.name} (pid {task.pid}) is RUNNABLE but on no "
                    f"run queue",
                )
            if task.state == TaskState.RUNNING and task.pid not in seen:
                self._fail(
                    "no-lost-task",
                    f"{task.name} (pid {task.pid}) is RUNNING but is no "
                    f"CPU's current task",
                )


def attach_sanitizer(kernel) -> Optional[SchedInvariantChecker]:
    """Attach a checker to *kernel* if ``REPRO_SANITIZE`` asks for one.

    Called by the kernel facade at boot so that *every* kernel in a
    sanitized process — tests, campaigns, CLI runs — is covered without any
    call-site opt-in.
    """
    if not sanitizer_enabled():
        return None
    return SchedInvariantChecker(kernel).attach()


def check_books(kernel) -> None:
    """Run the bookkeeping rules once over *kernel* (a booted, paused or
    finished one); raises :class:`InvariantViolation` on the first broken
    rule.  Adds no hooks."""
    SchedInvariantChecker(kernel)._check_books()
