"""The scheduler core.

This module is the simulator's ``kernel/sched.c``: it owns the per-CPU run
queues, performs context switches, walks the scheduling-class list to pick
the next task, applies wakeup preemption, and maintains the perf software
counters and the cache-warmth state at exactly the decision points the real
kernel would.

Execution model
---------------
The core is event-driven.  At most one *cpu timer* event is pending per CPU:
either the running task's **segment completion** (its remaining work, solved
in closed form against the warmth model and the SMT co-run factor) or its
**timeslice expiry** (only armed when the class wants rotation).  Everything
else — wakeups, blocks, balancer actions — arrives as external events that
checkpoint the running task's accounting (:meth:`SchedCore.update_curr`) and
re-arm the timer.  Between checkpoints a task's execution rate is constant
by construction, because anything that could change it (SMT sibling state,
preemption) itself triggers a checkpoint.

Spinning tasks
--------------
A task with ``spinning=True`` models an MPI rank busy-waiting in the
library's progress loop: it occupies the CPU (and an SMT pipeline) but
performs no accounted work, and — because such loops call ``sched_yield()``
every iteration — a *fair-class* spinner is treated as immediately
preemptable by any fair-class wakeup on its CPU.  An HPC- or RT-class
spinner yields only to its own (empty) class and therefore keeps the CPU,
which is precisely the paper's mechanism for starving daemons while the
application runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.memsim.warmth import WarmthModel
from repro.sim.engine import Simulator
from repro.topology.machine import Machine
from repro.kernel.perf import PerfEvents
from repro.kernel.runqueue import CpuRunqueue
from repro.kernel.sched_class import SchedClass
from repro.kernel.task import SchedPolicy, Task, TaskState

__all__ = ["SchedCoreConfig", "SchedCore", "HotplugReport"]

#: Work-completion slack (µs): integer rounding across checkpoints can leave
#: a segment this much short; treat it as done.
_WORK_EPSILON = 2


@dataclass(frozen=True)
class SchedCoreConfig:
    """Mechanical costs and behaviour switches of the scheduler core."""

    #: Direct cost of a context switch (register/TLB work), µs.
    switch_cost: int = 6
    #: Extra direct cost charged to a task on CPU migration, µs.
    migration_cost: int = 30
    #: Fraction of CPU throughput lost to periodic-tick bookkeeping.
    tick_overhead: float = 0.001
    #: NETTICK-style dynamic ticks: no tick overhead on a CPU whose run
    #: queue holds a single task (the paper's [21], left as future work for
    #: HPL's evaluation but implemented here for the ablation benches).
    tickless: bool = False
    #: Whether a fair-class spinner is preempted by fair-class wakeups
    #: (models the sched_yield() in MPI progress loops).
    spin_preempt: bool = True

    def __post_init__(self) -> None:
        if self.switch_cost < 0 or self.migration_cost < 0:
            raise ValueError("costs cannot be negative")
        if not 0.0 <= self.tick_overhead < 0.2:
            raise ValueError("tick_overhead must be a small fraction")


@dataclass
class HotplugReport:
    """What a CPU offline operation did to the tasks it displaced."""

    cpu: int
    #: Tasks force-migrated to online CPUs (counted as cpu-migrations).
    migrated: List[Task] = field(default_factory=list)
    #: Tasks whose affinity admits no online CPU: forced asleep until their
    #: CPU returns (the fate of per-CPU kthreads under real hotplug is to be
    #: parked; same word, same semantics).
    parked: List[Task] = field(default_factory=list)


class SchedCore:
    """Per-machine scheduler state machine."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        classes: Sequence[SchedClass],
        warmth: WarmthModel,
        perf: PerfEvents,
        config: SchedCoreConfig = SchedCoreConfig(),
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.classes = list(classes)
        self.warmth = warmth
        self.perf = perf
        self.config = config

        self.rqs: List[CpuRunqueue] = [
            CpuRunqueue(cpu.cpu_id, self.classes) for cpu in machine.cpus
        ]
        #: Lazy cache-eviction clocks, one per physical core (indexed by the
        #: dense ``core_id``).
        self._core_clock: List[int] = [0] * machine.n_cores
        # Flattened topology tables: the accounting hot path (update_curr,
        # _base_rate, sibling checkpoints) runs per event and must not
        # re-walk the Machine object tree each time.
        #: cpu_id -> core_id of the core that owns it.
        self._core_id_of: List[int] = [cpu.core.core_id for cpu in machine.cpus]
        #: cpu_id -> every cpu_id on the same core (self included).
        self._core_cpu_ids: List[List[int]] = [
            [t.cpu_id for t in cpu.core.threads] for cpu in machine.cpus
        ]
        #: cpu_id -> the run queues of every CPU on the same core (self
        #: included): the object form of ``_core_cpu_ids``, for recounting
        #: a core's SMT busy count from its threads' ``rq.curr``.
        self._core_rqs: List[List[CpuRunqueue]] = [
            [self.rqs[c] for c in ids] for ids in self._core_cpu_ids
        ]
        #: core_id -> how many of its hardware threads run a non-idle task
        #: right now: the SMT busy count ``_base_rate`` indexes its tables
        #: with.  Kept in step by :meth:`_set_curr`, the only writer of
        #: ``rq.curr``, so the per-event rate never walks the siblings' run
        #: queues (the sanitizer re-walks them before every event).
        self._core_busy: List[int] = [0] * machine.n_cores
        #: cpu_id -> timer kind -> (callback, label): the per-CPU timer's
        #: arming material, built once.  Re-arming is the hottest schedule
        #: site in the simulator (once per checkpoint), and building a fresh
        #: closure and label f-string per arm measurably dominated it.  A
        #: ``partial`` of the bound handler calls it without a lambda frame.
        self._timer_arm: List[Dict[str, tuple]] = [
            {
                kind: (
                    partial(self._on_cpu_timer, cpu.cpu_id, kind),
                    f"cpu{cpu.cpu_id}:{kind}",
                )
                for kind in ("complete", "slice")
            }
            for cpu in machine.cpus
        ]
        #: cpu_id -> its SMT sibling cpu_ids (self excluded).
        self._sibling_cpu_ids: List[List[int]] = [
            [t.cpu_id for t in cpu.core.threads if t.cpu_id != cpu.cpu_id]
            for cpu in machine.cpus
        ]
        self._smt_throughput = machine.smt_throughput
        #: Node-wide compute rate multiplier (straggler injection).  Exactly
        #: 1.0 in the fault-free case, where the `_base_rate` branch that
        #: applies it is never taken — zero-cost-when-unarmed.
        self._speed_scale: float = 1.0
        self._rebuild_rate_tables()
        #: Wake/fork CPU selection, installed by the kernel facade.
        self.select_cpu: Callable[[Task, str], int] = lambda task, reason: (
            task.cpu if task.cpu is not None else 0
        )
        #: New-idle balance hook (returns True if it enqueued something).
        self.newidle_hook: Optional[Callable[[int], bool]] = None
        #: CPU hotplug state: False = offlined, holds no runnable tasks.
        self.cpu_online: List[bool] = [True] * machine.n_cpus
        #: Evacuation CPU chooser installed by the kernel facade (None or a
        #: returned offline/forbidden CPU falls back to the first online
        #: admissible CPU).
        self.select_evac_cpu: Optional[Callable[[Task], Optional[int]]] = None
        #: Observers called as fn(time, cpu, prev, next) on every switch.
        self.switch_hooks: List[Callable[[int, int, Task, Task], None]] = []
        #: Observers called as fn(time, cpu, task, is_wakeup) the moment a
        #: task becomes runnable, *before* the preemption check — so a
        #: latency observer always sees the enqueue before the (possibly
        #: same-instant) switch that serves it.
        self.wakeup_hooks: List[Callable[[int, int, Task, bool], None]] = []
        #: Observers called as fn(time, cpu, victim, preemptor_class) when
        #: the running task is involuntarily displaced.
        self.preempt_hooks: List[Callable[[int, int, Task, str], None]] = []

        self._idle_tasks: List[Optional[Task]] = [None] * machine.n_cpus
        #: The task whose segment handler is running, and the run queue it
        #: completed on; both None outside :meth:`_on_cpu_timer`.  While
        #: set, :meth:`_program` leaves that pair's timer to the single
        #: re-arm that follows the handler.
        self.handler_task: Optional[Task] = None
        self.handler_rq: Optional[CpuRunqueue] = None

    # ------------------------------------------------------------ bootstrap

    def install_idle_task(self, cpu_id: int, task: Task) -> None:
        """Register *task* as the permanent idle task of *cpu_id* and start
        the CPU idling."""
        if task.policy != SchedPolicy.IDLE:
            raise ValueError("idle task must have SCHED_IDLE policy")
        rq = self.rqs[cpu_id]
        queue = rq.queues["idle"]
        queue.set_idle_task(task)  # type: ignore[attr-defined]
        task.cpu = cpu_id
        task.last_cpu = cpu_id
        self._idle_tasks[cpu_id] = task
        if rq.curr is None:
            queue.mark_queued(False)  # type: ignore[attr-defined]
            task.state = TaskState.RUNNING
            self._set_curr(rq, task)
            rq.exec_start = self.sim.now

    # ------------------------------------------------------------ inquiries

    def rq_of(self, task: Task) -> CpuRunqueue:
        if task.cpu is None:
            raise ValueError(f"{task!r} has no CPU assignment")
        return self.rqs[task.cpu]

    def hpc_count(self, cpu_id: int) -> int:
        """Runnable HPC tasks on a CPU (for the HPL fork placer)."""
        rq = self.rqs[cpu_id]
        if "hpc" not in rq.queues:
            return 0
        return rq.nr_runnable("hpc")

    def cpu_is_idle(self, cpu_id: int) -> bool:
        return self.rqs[cpu_id].is_idle()

    def cpu_is_online(self, cpu_id: int) -> bool:
        return self.cpu_online[cpu_id]

    def online_cpu_ids(self) -> List[int]:
        return [i for i, up in enumerate(self.cpu_online) if up]

    def has_online_cpu_for(self, task: Task) -> bool:
        """Whether any online CPU is admissible for *task*."""
        return self._first_online_allowed(task) is not None

    def _first_online_allowed(self, task: Task) -> Optional[int]:
        for cpu_id, up in enumerate(self.cpu_online):
            if up and task.allows_cpu(cpu_id):
                return cpu_id
        return None

    # ------------------------------------------------------- accounting core

    def _rebuild_rate_tables(self) -> None:
        """Precompute ``_base_rate``'s answer per SMT-busy count.

        The rate depends on three inputs: the busy-sibling count (indexes
        the SMT throughput curve), the speed scale, and whether the tick
        haircut applies.  Only the first and last vary per call, so the two
        possible curves — with and without the haircut — are materialised
        once here (and again on every ``set_speed_scale``), multiplied in
        the same operand order the historical per-call arithmetic used.
        ``_rate_mode`` collapses the config test: 0 = haircut always
        applies, 1 = never (tick_overhead zero), 2 = tickless — apply it
        only while queued work keeps the tick alive."""
        scale = self._speed_scale
        config = self.config
        quiet = []
        ticked = []
        for smt in self._smt_throughput:
            rate = smt
            if scale != 1.0:
                rate *= scale
            quiet.append(rate)
            ticked.append(rate * (1.0 - config.tick_overhead))
        self._rate_quiet = quiet
        self._rate_ticked = ticked if config.tick_overhead else quiet
        if not config.tick_overhead:
            self._rate_mode = 1
        elif config.tickless:
            self._rate_mode = 2
        else:
            self._rate_mode = 0

    def _set_curr(self, rq: CpuRunqueue, task: Optional[Task]) -> None:
        """Make *task* (None: nobody) the running task of *rq*, keeping
        its core's SMT busy count in step with the change."""
        old = rq.curr
        delta = (task is not None and not task.is_idle) - (
            old is not None and not old.is_idle
        )
        if delta:
            self._core_busy[self._core_id_of[rq.cpu_id]] += delta
        rq.curr = task

    def _base_rate(self, rq: CpuRunqueue) -> float:
        """Execution rate of the task on *rq* right now: SMT co-run factor
        times the tick-bookkeeping haircut (both via the precomputed
        tables — see :meth:`_rebuild_rate_tables`)."""
        busy = self._core_busy[self._core_id_of[rq.cpu_id]]
        if busy < 1:
            busy = 1
        mode = self._rate_mode
        if mode == 0:
            return self._rate_ticked[busy - 1]
        if mode == 1 or rq.nr_queued() == 0:
            return self._rate_quiet[busy - 1]
        return self._rate_ticked[busy - 1]

    def update_curr(self, cpu_id: int) -> None:
        """Checkpoint the running task's accounting up to now.

        Idempotent within an instant, and exploited as such: two thirds of
        all calls arrive with the accounting already up to date (a cohort of
        same-instant events each defensively checkpointing), so the
        ``exec_start == now`` case must return before touching anything
        else.  The zero-delta fall-through it skips only re-wrote
        ``exec_start`` with the value it already holds."""
        rq = self.rqs[cpu_id]
        now = self.sim.now
        if rq.exec_start == now:
            return
        p = rq.curr
        delta = now - rq.exec_start
        if p is None or delta <= 0:
            rq.exec_start = now
            return
        rq.exec_start = now
        p.sum_exec_runtime += delta
        p.slice_used += delta
        p.last_ran_at = now
        if p.is_idle:
            return

        cls, queue, _ = rq._serving[p.policy]
        cls.charge(queue, p, delta)

        # Work progression: burn pending dead time first, then real work.
        effective = delta
        pending = p.pending_delay
        if pending > 0:
            burned = effective if effective < pending else pending
            p.pending_delay = pending - burned
            effective -= burned
        spinning = p.spinning
        warmth_state = p.warmth
        if spinning or warmth_state is None:
            if effective > 0 and not spinning and p.remaining_work is not None:
                # pragma: no cover - warmth always set before running
                done = int(self._base_rate(rq) * effective)
                remaining = p.remaining_work - done
                p.remaining_work = remaining if remaining > 0 else 0
            return

        # Cache dynamics fused with work progression: ``advance`` yields the
        # warmth-integrated mean speed *and* applies the warmth decay from
        # one shared exponential (bit-identical to the unfused
        # mean_speed_over + run_for pair in tests/oracles/warmth.py).
        if effective > 0:
            speed = self.warmth.advance(warmth_state, effective)
            if p.remaining_work is not None:
                done = int(self._base_rate(rq) * speed * effective)
                remaining = p.remaining_work - done
                p.remaining_work = remaining if remaining > 0 else 0
        self._core_clock[self._core_id_of[cpu_id]] += delta

    def _apply_lazy_eviction(self, task: Task) -> None:
        """Fold in the cache disturbance that hit the task's home core while
        it was off-CPU."""
        if task.warmth is None:
            return
        clock = self._core_clock[self._core_id_of[task.warmth.home_cpu]]
        delta = clock - task.evict_snapshot
        if delta > 0:
            self.warmth.evict_for(task.warmth, delta)
        task.evict_snapshot = clock

    def _snapshot_eviction(self, task: Task) -> None:
        if task.warmth is None:
            return
        task.evict_snapshot = self._core_clock[self._core_id_of[task.warmth.home_cpu]]

    # ----------------------------------------------------------- placement

    def set_task_cpu(self, task: Task, new_cpu: int) -> None:
        """Assign *task* to *new_cpu*, counting a cpu-migration (and paying
        its costs) when the assignment actually changes — the semantics of
        the kernel's ``set_task_cpu`` / PERF_COUNT_SW_CPU_MIGRATIONS."""
        old = task.cpu
        if old == new_cpu:
            return
        if not task.allows_cpu(new_cpu):
            raise ValueError(f"{task!r} affinity forbids cpu {new_cpu}")
        if not self.cpu_online[new_cpu]:
            raise ValueError(f"cannot place {task!r} on offline cpu {new_cpu}")
        if old is not None:
            task.nr_migrations += 1
            self.perf.record_migration(self.sim.now, task.pid, old, new_cpu, task=task)
            if task.warmth is not None:
                self._apply_lazy_eviction(task)
                self.warmth.migrate(task.warmth, new_cpu)
                self._snapshot_eviction(task)
            task.pending_delay += self.config.migration_cost
        task.cpu = new_cpu

    # ---------------------------------------------------------- transitions

    def start_task(self, task: Task, *, parent_cpu: Optional[int]) -> bool:
        """Make a NEW task runnable (the tail of ``fork``): it inherits the
        parent's CPU, then fork placement may move it (counted as the fork
        migration the paper describes in §V).

        When hotplug has taken every CPU the task may run on (a pinned rank
        respawned while its CPU is down), the task is born parked instead:
        asleep on its first admissible CPU.  Returns False then, so the
        facade wakes it when a CPU returns."""
        if task.state != TaskState.NEW:
            raise ValueError(f"start_task on non-new {task!r}")
        task.created_at = self.sim.now
        parked = not self.has_online_cpu_for(task)
        if parked:
            task.cpu = min(task.affinity)  # type: ignore[arg-type]
        else:
            if parent_cpu is not None:
                task.cpu = parent_cpu
            elif task.cpu is None:
                task.cpu = 0
            self.set_task_cpu(task, self.select_cpu(task, "fork"))
        if task.warmth is None:
            task.warmth = self.warmth.new_task(task.cpu)
            self._snapshot_eviction(task)
        if parked:
            self._park(task)
            return False
        self._activate(task, wakeup=False)
        return True

    def wake_up(self, task: Task) -> None:
        """SLEEPING → RUNNABLE, with wake placement and preemption check."""
        if task.state != TaskState.SLEEPING:
            raise ValueError(f"wake_up on non-sleeping {task!r}")
        target = self.select_cpu(task, "wake")
        self.set_task_cpu(task, target)
        self._activate(task, wakeup=True)

    def _activate(self, task: Task, *, wakeup: bool) -> None:
        rq = self.rq_of(task)
        cls = rq.class_of(task)
        task.state = TaskState.RUNNABLE
        if self.wakeup_hooks:
            for hook in self.wakeup_hooks:
                hook(self.sim.now, rq.cpu_id, task, wakeup)
        cls.enqueue(rq.queues[cls.name], task, wakeup=wakeup)
        self._check_preempt(rq, task)

    def _check_preempt(self, rq: CpuRunqueue, woken: Task) -> None:
        curr = rq.curr
        if curr is None:
            self._dispatch(rq)
            return
        wcls = rq.class_of(woken)
        ccls = rq.class_of(curr)
        wrank = rq.class_rank(wcls)
        crank = rq.class_rank(ccls)
        preempt = False
        if wrank < crank:
            preempt = True  # higher class always wins (the §IV class order)
        elif wrank == crank:
            self.update_curr(rq.cpu_id)
            if wcls.check_preempt(rq.queues[wcls.name], curr, woken):
                preempt = True
            elif (
                curr.spinning
                and self.config.spin_preempt
                and ccls.name == "fair"
            ):
                preempt = True  # the spinner's next sched_yield()
        if preempt:
            self.preempt_curr(rq, by=woken)
        else:
            # The new arrival may shorten the current slice.
            self._program(rq)

    def _checkpoint_siblings(self, cpu_id: int) -> None:
        """Bring SMT siblings' accounting up to date *before* this CPU's
        busy state changes, so their past interval is integrated at the rate
        that actually prevailed."""
        rqs = self.rqs
        now = self.sim.now
        for sibling_id in self._sibling_cpu_ids[cpu_id]:
            if rqs[sibling_id].exec_start != now:
                self.update_curr(sibling_id)

    def preempt_curr(self, rq: CpuRunqueue, by: Optional[Task] = None) -> None:
        """Involuntarily displace the running task and reschedule.  *by* is
        the preemptor when known (a wakeup); a slice expiry rotates within
        the victim's own class and is attributed to it."""
        curr = rq.curr
        if curr is None:
            self._dispatch(rq)
            return
        self.update_curr(rq.cpu_id)
        self._checkpoint_siblings(rq.cpu_id)
        self._set_curr(rq, None)
        if not curr.is_idle:
            curr.nr_involuntary_switches += 1
            self._note_preemption(rq, curr, by)
            curr.state = TaskState.RUNNABLE
            self._snapshot_eviction(curr)
            cls = rq.class_of(curr)
            cls.put_prev(rq.queues[cls.name], curr)
        else:
            curr.state = TaskState.RUNNABLE
            cls = rq.class_of(curr)
            cls.put_prev(rq.queues[cls.name], curr)
        self._dispatch(rq, prev=curr)

    def _note_preemption(self, rq: CpuRunqueue, victim: Task, by: Optional[Task]) -> None:
        """Attribute an involuntary displacement of *victim* to the
        preemptor's scheduling class in the perf fabric and the hooks."""
        by_class = rq.class_of(by if by is not None else victim).name
        self.perf.record_preemption(victim, by_class)
        if self.preempt_hooks:
            for hook in self.preempt_hooks:
                hook(self.sim.now, rq.cpu_id, victim, by_class)

    def block_current(self, cpu_id: int) -> Task:
        """The running task sleeps (voluntary switch).  Returns it."""
        rq = self.rqs[cpu_id]
        curr = rq.curr
        if curr is None or curr.is_idle:
            raise RuntimeError(f"no blockable task on cpu {cpu_id}")
        self.update_curr(cpu_id)
        self._checkpoint_siblings(cpu_id)
        curr.state = TaskState.SLEEPING
        curr.sleep_start = self.sim.now
        curr.nr_voluntary_switches += 1
        self.perf.record_voluntary_switch(curr)
        self._snapshot_eviction(curr)
        self._set_curr(rq, None)
        self._dispatch(rq, prev=curr)
        return curr

    def exit_current(self, cpu_id: int) -> Task:
        """The running task exits."""
        rq = self.rqs[cpu_id]
        curr = rq.curr
        if curr is None or curr.is_idle:
            raise RuntimeError(f"no exitable task on cpu {cpu_id}")
        self.update_curr(cpu_id)
        self._checkpoint_siblings(cpu_id)
        curr.state = TaskState.EXITED
        curr.exited_at = self.sim.now
        self._set_curr(rq, None)
        self._dispatch(rq, prev=curr)
        return curr

    def yield_current(self, cpu_id: int) -> None:
        """``sched_yield()`` from the running task."""
        rq = self.rqs[cpu_id]
        curr = rq.curr
        if curr is None or curr.is_idle:
            return
        self.update_curr(cpu_id)
        cls = rq.class_of(curr)
        queue = rq.queues[cls.name]
        if queue.nr_running == 0:
            # Nobody to yield to in this class; yielding is a no-op beyond
            # its (negligible) syscall cost.
            self._program(rq)
            return
        cls.yield_task(queue, curr)
        curr.state = TaskState.RUNNABLE
        self._snapshot_eviction(curr)
        cls.put_prev(queue, curr)
        self._set_curr(rq, None)
        self._dispatch(rq, prev=curr)

    # ----------------------------------------------------------- migration

    def migrate_queued(self, task: Task, dst_cpu: int) -> None:
        """Balancer: move a queued (runnable, not running) task to another
        CPU's queue."""
        if task.state != TaskState.RUNNABLE:
            raise ValueError(f"can only migrate runnable tasks, not {task!r}")
        src_rq = self.rq_of(task)
        if src_rq.curr is task:
            raise ValueError("use active migration for the running task")
        cls = src_rq.class_of(task)
        cls.dequeue(src_rq.queues[cls.name], task)
        self.set_task_cpu(task, dst_cpu)
        dst_rq = self.rqs[dst_cpu]
        dst_cls = dst_rq.class_of(task)
        dst_cls.enqueue(dst_rq.queues[dst_cls.name], task, wakeup=False)
        self._program(src_rq)
        self._check_preempt(dst_rq, task)

    def active_migrate_running(self, cpu_id: int, dst_cpu: int) -> Optional[Task]:
        """Migration-daemon-assisted move of the *running* task (how the RT
        balancer relocates a task that never blocks).  Costs the victim a
        preemption (the daemon runs) plus the migration itself."""
        rq = self.rqs[cpu_id]
        victim = rq.curr
        if victim is None or victim.is_idle:
            return None
        self.update_curr(cpu_id)
        self._checkpoint_siblings(cpu_id)
        victim.nr_involuntary_switches += 1
        # The migration daemon is an RT-class kernel thread: the
        # displacement is charged to the RT class.
        self.perf.record_preemption(victim, "rt")
        if self.preempt_hooks:
            for hook in self.preempt_hooks:
                hook(self.sim.now, cpu_id, victim, "rt")
        victim.state = TaskState.RUNNABLE
        self._snapshot_eviction(victim)
        self._set_curr(rq, None)
        # The migration daemon briefly runs on the source CPU: one switch
        # into the daemon here; the switch out of it is the dispatch below.
        self.perf.record_context_switch(cpu_id, class_name="rt")
        self.set_task_cpu(victim, dst_cpu)
        dst_rq = self.rqs[dst_cpu]
        cls = dst_rq.class_of(victim)
        cls.enqueue(dst_rq.queues[cls.name], victim, wakeup=False)
        # Give the destination the task *before* the source looks for new
        # work, so the source's new-idle pass sees it running, not queued
        # (stealing it straight back would be absurd — and a livelock).
        self._check_preempt(dst_rq, victim)
        self._dispatch(rq, prev=victim)
        return victim

    def remove_queued(self, task: Task) -> None:
        """Forcibly dequeue a runnable (not running) task — the core half of
        ``kill`` on a queued victim."""
        if task.state != TaskState.RUNNABLE:
            raise ValueError(f"remove_queued needs a runnable task, not {task!r}")
        rq = self.rq_of(task)
        if rq.curr is task:
            raise ValueError("use exit_current for the running task")
        cls = rq.class_of(task)
        cls.dequeue(rq.queues[cls.name], task)
        self._program(rq)

    # -------------------------------------------------------------- hotplug

    def _evac_target(self, task: Task) -> Optional[int]:
        """Where to push a task off a dying CPU: the facade's policy hook if
        it names a usable CPU, else the first online admissible one, else
        None (no online CPU admits the task — it must be parked)."""
        first = self._first_online_allowed(task)
        if first is None:
            return None
        if self.select_evac_cpu is not None:
            target = self.select_evac_cpu(task)
            if (
                target is not None
                and 0 <= target < self.machine.n_cpus
                and self.cpu_online[target]
                and task.allows_cpu(target)
            ):
                return target
        return first

    def _park(self, task: Task) -> None:
        """Force a displaced task asleep (no online CPU admits it)."""
        task.state = TaskState.SLEEPING
        task.sleep_start = self.sim.now
        task.spinning = False

    def park_task(self, task: Task) -> None:
        """Force *task* asleep from any live state.  Used when no online CPU
        admits it (hotplug parking — what the kernel does to per-CPU
        kthreads of a dead CPU).  A RUNNING victim is displaced by the
        hotplug stopper (an RT kernel thread), so it is charged an RT
        preemption like an active migration."""
        if task.state == TaskState.SLEEPING or task.state == TaskState.NEW:
            task.spinning = False
            return
        if task.state == TaskState.RUNNABLE:
            rq = self.rq_of(task)
            if rq.curr is task:  # pragma: no cover - state machine invariant
                raise RuntimeError("RUNNABLE task cannot be rq.curr")
            cls = rq.class_of(task)
            cls.dequeue(rq.queues[cls.name], task)
            self._park(task)
            self._program(rq)
            return
        if task.state != TaskState.RUNNING:
            raise ValueError(f"cannot park {task!r}")
        cpu_id = task.cpu
        assert cpu_id is not None
        rq = self.rqs[cpu_id]
        self.update_curr(cpu_id)
        self._checkpoint_siblings(cpu_id)
        task.nr_involuntary_switches += 1
        self.perf.record_preemption(task, "rt")
        if self.preempt_hooks:
            for hook in self.preempt_hooks:
                hook(self.sim.now, cpu_id, task, "rt")
        self._snapshot_eviction(task)
        self._park(task)
        self._set_curr(rq, None)
        self._dispatch(rq, prev=task)

    def offline_cpu(self, cpu_id: int) -> HotplugReport:
        """Hot-unplug *cpu_id*: mark it down and evacuate every task.

        Queued tasks are migrated like a balancer pull; the running task is
        displaced by the hotplug stopper thread (an RT kernel thread, so the
        victim is charged an RT preemption plus the migration — the same
        accounting as :meth:`active_migrate_running`).  Tasks whose affinity
        admits no online CPU are *parked*: forced asleep until their CPU
        returns.  Every migration lands in the perf ``cpu-migrations``
        counter, so recovery cost is observable."""
        if not 0 <= cpu_id < self.machine.n_cpus:
            raise ValueError(f"no such cpu {cpu_id}")
        if not self.cpu_online[cpu_id]:
            raise ValueError(f"cpu {cpu_id} is already offline")
        if sum(self.cpu_online) == 1:
            raise ValueError("cannot offline the last online cpu")
        self.cpu_online[cpu_id] = False
        report = HotplugReport(cpu=cpu_id)
        rq = self.rqs[cpu_id]
        # Queued tasks first: strand nothing, then deal with the runner.
        for cls in rq.classes:
            if cls.name == "idle":
                continue
            for task in list(rq.queues[cls.name].queued_tasks()):
                target = self._evac_target(task)
                if target is None:
                    self.park_task(task)
                    report.parked.append(task)
                else:
                    self.migrate_queued(task, target)
                    report.migrated.append(task)
        curr = rq.curr
        if curr is not None and not curr.is_idle:
            target = self._evac_target(curr)
            if target is None:
                # The stopper displaces it, but there is nowhere to put it —
                # it sleeps holding its segment progress.
                self.park_task(curr)
                report.parked.append(curr)
            else:
                self.active_migrate_running(cpu_id, target)
                report.migrated.append(curr)
        return report

    def online_cpu(self, cpu_id: int) -> None:
        """Bring a previously offlined CPU back.  The facade re-wakes any
        parked tasks; placement hooks see the CPU again immediately."""
        if not 0 <= cpu_id < self.machine.n_cpus:
            raise ValueError(f"no such cpu {cpu_id}")
        if self.cpu_online[cpu_id]:
            raise ValueError(f"cpu {cpu_id} is already online")
        self.cpu_online[cpu_id] = True

    # ------------------------------------------------------------- segments

    def set_segment(self, task: Task, work: int, on_end: Callable[[], None]) -> None:
        """Give *task* a new execution segment of *work* µs (at full speed)
        ending in *on_end*."""
        if work < 0:
            raise ValueError("segment work cannot be negative")
        running = task.state == TaskState.RUNNING
        if running:
            # Checkpoint under the *old* segment/spin state first (inline
            # guard as in _program: mostly already done this instant).
            rq = self.rqs[task.cpu]  # type: ignore[index]
            if rq.exec_start != self.sim.now:
                self.update_curr(rq.cpu_id)
        task.remaining_work = work
        task.on_segment_end = on_end
        task.spinning = False
        # Inside the task's own segment handler (the common case) the
        # re-arm after the handler is the only one: _program would return
        # right after the checkpoint just taken, so it is not called.
        if running and (task is not self.handler_task or rq is not self.handler_rq):
            self._program(rq)

    def set_spin(self, task: Task) -> None:
        """Put *task* into busy-wait mode (MPI progress loop)."""
        running = task.state == TaskState.RUNNING
        if running:
            rq = self.rqs[task.cpu]  # type: ignore[index]
            if rq.exec_start != self.sim.now:
                self.update_curr(rq.cpu_id)
        task.remaining_work = None
        task.on_segment_end = None
        task.spinning = True
        if running and (task is not self.handler_task or rq is not self.handler_rq):
            self._program(rq)

    def charge_overhead(self, cpu_id: int, cost: int) -> None:
        """Charge *cost* µs of kernel bookkeeping to whatever runs on the
        CPU (balance attempts, etc.)."""
        rq = self.rqs[cpu_id]
        if rq.curr is None or rq.curr.is_idle:
            return
        self.update_curr(cpu_id)
        rq.curr.pending_delay += cost
        self._program(rq)

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, rq: CpuRunqueue, prev: Optional[Task] = None) -> None:
        """Pick the next task for *rq* (whose ``curr`` is None) and switch."""
        assert rq.curr is None
        next_task: Optional[Task] = None
        for cls in rq.classes:
            # New-idle balancing: before settling for the idle task, give the
            # balancer one chance to pull work here (kernel: idle_balance()).
            if cls.name == "idle" and self.newidle_hook is not None:
                if self.newidle_hook(rq.cpu_id):
                    if rq.curr is not None:
                        return  # the pull already dispatched this CPU
                    self._dispatch(rq, prev=prev)
                    return
            next_task = cls.pick_next(rq.queues[cls.name])
            if next_task is not None:
                break
        assert next_task is not None, "idle class must always supply a task"
        self._switch_to(rq, next_task, prev)

    def _switch_to(self, rq: CpuRunqueue, next_task: Task, prev: Optional[Task]) -> None:
        now = self.sim.now
        # Busy state may flip (idle <-> task): settle neighbours first.
        self._checkpoint_siblings(rq.cpu_id)
        if next_task is not prev:
            self.perf.record_context_switch(rq.cpu_id, next_task)
            next_task.nr_switches += 1
            if not next_task.is_idle:
                next_task.pending_delay += self.config.switch_cost
            if self.switch_hooks and prev is not None:
                for hook in self.switch_hooks:
                    hook(now, rq.cpu_id, prev, next_task)
        next_task.state = TaskState.RUNNING
        next_task.cpu = rq.cpu_id
        next_task.last_cpu = rq.cpu_id
        if next_task.warmth is None:
            next_task.warmth = self.warmth.new_task(rq.cpu_id)
            self._snapshot_eviction(next_task)
        elif not next_task.is_idle:
            self._apply_lazy_eviction(next_task)
        self._set_curr(rq, next_task)
        rq.exec_start = now
        self._program(rq)
        self._reprogram_core_siblings(rq.cpu_id)

    def _reprogram_core_siblings(self, cpu_id: int) -> None:
        """An SMT sibling's busy state changed: checkpoint and re-arm the
        other threads of this core so their rates update."""
        rqs = self.rqs
        for sibling_id in self._sibling_cpu_ids[cpu_id]:
            sib_rq = rqs[sibling_id]
            curr = sib_rq.curr
            if curr is not None and not curr.is_idle:
                # _program checkpoints the sibling itself before re-arming.
                self._program(sib_rq)

    def set_speed_scale(self, factor: float) -> None:
        """Change the node-wide compute rate multiplier (straggler model).

        Every running task's accounting is checkpointed at the *old* rate
        before the scale flips, then its completion timer is re-armed at the
        new rate — the same checkpoint/re-program discipline SMT sibling
        changes use, so a mid-run scale change never rewrites history.
        """
        if factor <= 0:
            raise ValueError("speed scale must be positive")
        if factor == self._speed_scale:
            return
        rqs = self.rqs
        running = [
            rq for rq in rqs
            if rq.curr is not None and not rq.curr.is_idle
        ]
        for rq in running:
            self.update_curr(rq.cpu_id)
        self._speed_scale = factor
        self._rebuild_rate_tables()
        for rq in running:
            self._program(rq)

    # ---------------------------------------------------------------- timer

    def _program(self, rq: CpuRunqueue) -> None:
        """Re-arm the CPU's single timer for the earlier of segment
        completion and slice expiry.

        The result must be the event order that cancelling the pending
        timer and scheduling a fresh one would give: the fresh event holds
        the newest sequence number, so it fires *after* every same-instant,
        same-priority event already pending.  Two shortcuts keep that order
        exactly and skip the queue work:

        * **Handler deferral.**  While :meth:`_on_cpu_timer` runs the
          segment handler of ``rq.curr``, this returns right after the
          accounting checkpoint: the re-arm after the handler returns is
          the only one that can survive, because it cancels whatever the
          handler would have armed for that task on that CPU.  The check is
          keyed on the run queue *and* the task, so a task migrated by its
          handler is still armed on its new CPU.
        * **Newest-entry keep.**  When the pending timer already has the
          computed ``(fire time, kind)`` and nothing was scheduled after it
          (:meth:`EventQueue.is_newest`), it is kept.  Re-arming would only
          give it a fresh sequence number, which sorts in the same place
          against every live entry.  A kept timer that is *not* the newest
          entry would fire before same-instant events scheduled after it,
          so any other match is still cancelled and re-armed."""
        p = rq.curr
        if p is None or p.is_idle:
            event = rq.timer_event
            if event is not None:
                event.cancel()
                rq.timer_event = None
            return
        # Bring accounting up to date so remaining_work/slice_used are fresh
        # relative to `now`.  Callers almost always checkpointed this very
        # instant, so the guard is inlined rather than paying a call to
        # find out (update_curr itself carries the same early exit).
        now = self.sim.now
        if rq.exec_start != now:
            self.update_curr(rq.cpu_id)
        if p is self.handler_task and rq is self.handler_rq:
            return
        t_fire = 0
        kind = ""
        remaining = p.remaining_work
        if not p.spinning and remaining is not None:
            if remaining <= _WORK_EPSILON:
                pending = p.pending_delay
                t_done = now + (pending if pending > 1 else 1)
            else:
                rate = self._base_rate(rq)
                assert p.warmth is not None
                t_done = (
                    now
                    + p.pending_delay
                    + self.warmth.time_for_work(p.warmth, remaining, rate)
                )
            t_fire = t_done if t_done > now else now + 1
            kind = "complete"
        cls, queue, _ = rq._serving[p.policy]
        slice_us = cls.task_slice(queue, p)
        if slice_us is not None:
            left = slice_us - p.slice_used
            t_slice = now + (left if left > 1 else 1)
            # min() over the two candidates; "complete" wins the tie, as it
            # sorts before "slice" in the historical (time, kind) tuple min.
            if not kind or t_slice < t_fire:
                t_fire = t_slice
                kind = "slice"
        if not kind:
            event = rq.timer_event
            if event is not None:
                event.cancel()
                rq.timer_event = None
            if p.spinning:
                return  # a spinner with no class peers runs untimed
            raise RuntimeError(
                f"runnable {p!r} has neither work nor slice nor spin — the "
                "application layer must give every running task a segment"
            )
        callback, label = self._timer_arm[rq.cpu_id][kind]
        queue = self.sim.queue
        event = rq.timer_event
        if event is not None:
            if (
                event.time == t_fire
                and event.callback is callback
                and queue.is_newest(event)
            ):
                return
            event.cancel()
        rq.timer_kind = kind
        # Arm with the prebuilt callback/label; scheduling directly on the
        # queue is safe because t_fire > now by construction above (the
        # ``sim.at`` past-guard can never trip).
        rq.timer_event = queue.schedule(t_fire, callback, priority=5, label=label)

    def _on_cpu_timer(self, cpu_id: int, kind: str) -> None:
        rq = self.rqs[cpu_id]
        rq.timer_event = None
        p = rq.curr
        if p is None or p.is_idle:
            return  # stale fire after a state change at the same instant
        self.update_curr(cpu_id)
        if (
            kind == "complete"
            and p.remaining_work is not None
            and p.remaining_work <= _WORK_EPSILON
            and p.pending_delay == 0
        ):
            p.remaining_work = 0
            callback = p.on_segment_end
            p.on_segment_end = None
            if callback is None:
                raise RuntimeError(f"{p!r} completed a segment with no handler")
            # Defer every re-arm of (rq, p) the handler triggers to the
            # one below (see _program).
            self.handler_task = p
            self.handler_rq = rq
            try:
                callback()
            finally:
                self.handler_task = None
                self.handler_rq = None
            # The handler must have blocked/exited/re-segmented the task.
            if (
                rq.curr is p
                and p.remaining_work == 0
                and not p.spinning
            ):
                raise RuntimeError(
                    f"segment handler for {p!r} left it running with no work"
                )
            if rq.curr is p:
                self._program(rq)
            return
        # Slice expiry (or a completion that rounding left marginally short:
        # reprogramming converges because time_for_work >= 1).
        cls, queue, _ = rq._serving[p.policy]
        slice_us = cls.task_slice(queue, p)
        if kind == "slice" and slice_us is not None and p.slice_used >= slice_us:
            self.preempt_curr(rq)
        else:
            self._program(rq)
