"""The kernel facade: one object wiring machine, scheduler, balancer, perf.

Two canonical configurations:

* :meth:`KernelConfig.stock` — the unmodified Linux 2.6.3x model: classes
  ``[rt, fair, idle]``, full load balancing, periodic ticks.
* :meth:`KernelConfig.hpl` — the paper's kernel: classes
  ``[rt, hpc, fair, idle]`` (the HPC class slotted "between the standard
  Real-Time and CFS Linux classes"), **no** load balancing for any class,
  HPC fork placement by topology, NETTICK-style dynamic ticks.

Both variants expose the same API, so the experiment harness swaps kernels
without touching the workload — the A/B discipline of §V.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.memsim.warmth import WarmthModel, WarmthParams
from repro.sim.engine import Simulator
from repro.topology.domains import build_domains
from repro.topology.machine import Machine
from repro.core.hpl_balancer import HplForkPlacer
from repro.core.hpl_class import HplClass, HplParams
from repro.kernel.cfs import CfsClass, CfsParams
from repro.kernel.idle import IdleClass
from repro.kernel.invariants import attach_sanitizer
from repro.kernel.load_balancer import LoadBalancer, LoadBalancerConfig
from repro.kernel.perf import PerfEvents, PerfSession
from repro.kernel.rt import RtClass, RtParams
from repro.kernel.sched_core import HotplugReport, SchedCore, SchedCoreConfig
from repro.kernel.task import SchedPolicy, Task, TaskState

__all__ = ["KernelConfig", "Kernel"]

_VARIANTS = ("stock", "hpl")


@dataclass(frozen=True)
class KernelConfig:
    """Complete kernel configuration."""

    variant: str = "stock"
    #: Ablation switch: disable HPL's topology-aware fork placement (HPC
    #: children then simply stay on the forking parent's CPU).
    hpl_topo_placement: bool = True
    #: HPL placement objective: "performance" (spread: chips -> cores ->
    #: threads, the paper's §IV rule) or "power" (consolidate onto the
    #: fewest chips — the §VII future-work direction).
    hpl_placement_mode: str = "performance"
    cfs: CfsParams = CfsParams()
    rt: RtParams = RtParams()
    hpl_params: HplParams = HplParams()
    core: SchedCoreConfig = SchedCoreConfig()
    balancer: LoadBalancerConfig = LoadBalancerConfig()
    warmth: WarmthParams = WarmthParams()

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")

    # ------------------------------------------------------------- factories

    @classmethod
    def stock(cls, **overrides) -> "KernelConfig":
        """The unmodified-Linux baseline."""
        return cls(variant="stock", **overrides)

    @classmethod
    def hpl(cls, **overrides) -> "KernelConfig":
        """The paper's HPL kernel: HPC class enabled, all dynamic load
        balancing off, NETTICK ticks."""
        defaults = dict(
            variant="hpl",
            balancer=LoadBalancerConfig(hpc_gated=True),
            core=SchedCoreConfig(tickless=True),
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_overrides(self, **overrides) -> "KernelConfig":
        """Ablation helper: same config with selected fields replaced."""
        return replace(self, **overrides)


class Kernel:
    """A booted simulated kernel on one machine."""

    def __init__(
        self,
        machine: Machine,
        config: Optional[KernelConfig] = None,
        *,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        max_sim_time: Optional[int] = None,
    ) -> None:
        self.machine = machine
        self.config = config or KernelConfig.stock()
        self.sim = sim or Simulator(seed, max_sim_time=max_sim_time)

        # Scheduling classes in priority order; HPL slots its class between
        # RT and CFS (§IV).
        self.rt_class = RtClass(self.config.rt)
        self.fair_class = CfsClass(self.config.cfs)
        self.idle_class = IdleClass()
        classes: List = [self.rt_class]
        self.hpl_class: Optional[HplClass] = None
        if self.config.variant == "hpl":
            self.hpl_class = HplClass(self.config.hpl_params)
            classes.append(self.hpl_class)
        classes.extend([self.fair_class, self.idle_class])

        self.warmth = WarmthModel(machine, self.config.warmth)
        self.perf = PerfEvents(machine.n_cpus)
        self.core = SchedCore(
            self.sim, machine, classes, self.warmth, self.perf, self.config.core
        )
        self.domains = build_domains(machine)
        self.balancer = LoadBalancer(
            self.core, self.domains, self.sim.rng, self.config.balancer
        )
        self.hpl_placer = HplForkPlacer(
            machine,
            self.core.hpc_count,
            mode=self.config.hpl_placement_mode,
            cpu_filter=self.core.cpu_is_online,
        )
        self.core.select_cpu = self._select_cpu
        self.core.select_evac_cpu = self._select_evac_cpu
        # The application layer's per-segment calls go straight to the core:
        # a facade method that only forwarded cost one frame per phase.
        self.set_segment: Callable[[Task, int, Callable[[], None]], None] = (
            self.core.set_segment
        )
        self.set_spin: Callable[[Task], None] = self.core.set_spin

        #: Tasks parked by CPU hotplug (no online CPU admits them); re-woken
        #: in park order as CPUs return.
        self._park_waiters: List[Task] = []
        self._offline_count = 0
        #: What is attached to this kernel, when anything is: the armed
        #: FaultInjector, the KernelObserver, the started StarvationWatchdog.
        self.fault_injector = None
        self.observer = None
        self.watchdog = None

        self._next_pid = 1
        self.tasks: Dict[int, Task] = {}
        self._boot()
        self.balancer.start()
        #: The scheduler invariant sanitizer, when ``REPRO_SANITIZE`` asks
        #: for one (see :mod:`repro.kernel.invariants`); None otherwise.
        self.sanitizer = attach_sanitizer(self)

    # -------------------------------------------------------------- booting

    def _boot(self) -> None:
        for cpu in self.machine.cpus:
            idle = Task(
                self._alloc_pid(),
                f"swapper/{cpu.cpu_id}",
                SchedPolicy.IDLE,
                affinity=frozenset({cpu.cpu_id}),
                is_kernel_thread=True,
            )
            self.tasks[idle.pid] = idle
            self.core.install_idle_task(cpu.cpu_id, idle)

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    # ------------------------------------------------------------ placement

    def _select_cpu(self, task: Task, reason: str) -> int:
        if task.is_hpc:
            online = self.core.cpu_online
            if reason == "fork":
                if not self.config.hpl_topo_placement:
                    prev = task.cpu if task.cpu is not None else 0
                    if task.allows_cpu(prev) and online[prev]:
                        return prev
                return self.hpl_placer.place(task, prefer=task.cpu)
            # HPL never moves a woken HPC task: strictly its previous CPU —
            # unless hotplug took that CPU away (the only post-fork
            # migration HPL ever performs).
            prev = task.cpu if task.cpu is not None else 0
            if task.allows_cpu(prev) and online[prev]:
                return prev
            return self.hpl_placer.place(task)
        return self.balancer.select_cpu(task, reason)

    def _select_evac_cpu(self, task: Task) -> Optional[int]:
        """Destination policy for hotplug evacuation: HPC tasks go where the
        HPL placer says (topology-balanced, §IV), everything else to the
        idlest online admissible CPU (what the stock balancer would do)."""
        if task.is_hpc:
            return self.hpl_placer.place(task)
        return self.balancer.evac_cpu(task)

    # ----------------------------------------------------------- public API

    @property
    def now(self) -> int:
        return self.sim.now

    def spawn(
        self,
        name: str,
        *,
        policy: str = SchedPolicy.NORMAL,
        nice: int = 0,
        rt_priority: int = 0,
        affinity: Optional[frozenset] = None,
        parent: Optional[Task] = None,
        is_kernel_thread: bool = False,
        work: Optional[int] = None,
        on_segment_end: Optional[Callable[[], None]] = None,
    ) -> Task:
        """``fork`` + ``wake_up_new_task``: create a task and make it
        runnable.  Policy defaults to the parent's (inheritance is how MPI
        ranks end up in the HPC class when ``chrt`` launched ``mpiexec``)."""
        if parent is not None:
            policy = policy if policy != SchedPolicy.NORMAL else parent.policy
            if policy in SchedPolicy.RT and rt_priority == 0:
                rt_priority = parent.rt_priority
            if affinity is None:
                affinity = parent.affinity
        if policy == SchedPolicy.HPC and self.hpl_class is None:
            raise ValueError("SCHED_HPC requires the HPL kernel variant")
        task = Task(
            self._alloc_pid(),
            name,
            policy,
            nice=nice,
            rt_priority=rt_priority,
            affinity=affinity,
            is_kernel_thread=is_kernel_thread,
        )
        self.tasks[task.pid] = task
        if work is not None:
            if on_segment_end is None:
                raise ValueError("a work segment needs an on_segment_end handler")
            task.remaining_work = work
            task.on_segment_end = on_segment_end
        parent_cpu = None
        if parent is not None:
            parent_cpu = parent.cpu if parent.cpu is not None else None
        if not self.core.start_task(task, parent_cpu=parent_cpu):
            self._park_waiters.append(task)
        return task

    # -- scheduling-state changes (the "syscall" surface used by apps) ------

    def sched_setscheduler(
        self, task: Task, policy: str, rt_priority: int = 0
    ) -> None:
        """Change a task's policy.  Restricted (for model simplicity) to
        tasks that are not currently enqueued runnable: NEW, SLEEPING, or
        RUNNING (a task changing its own policy)."""
        if policy == SchedPolicy.HPC and self.hpl_class is None:
            raise ValueError("SCHED_HPC requires the HPL kernel variant")
        if policy not in SchedPolicy.ALL or policy == SchedPolicy.IDLE:
            raise ValueError(f"cannot set policy {policy!r}")
        if task.is_idle:
            raise ValueError("the idle task's policy is fixed")
        if task.state == TaskState.RUNNABLE:
            raise ValueError(
                "changing the policy of a queued task is not modelled; do it "
                "before wakeup or from the task itself"
            )
        if policy in SchedPolicy.RT and not 1 <= rt_priority <= 99:
            raise ValueError("RT policies need rt_priority in [1, 99]")
        task.policy = policy
        task.rt_priority = rt_priority if policy in SchedPolicy.RT else 0
        task.refresh_sched_flags()
        if task.state == TaskState.RUNNING:
            # Re-arm the CPU timer: class rules (slice) changed.
            self.core.update_curr(task.cpu)  # type: ignore[arg-type]
            self.core._program(self.core.rq_of(task))

    def sched_exec(self, task: Task) -> None:
        """``exec()`` rebalance (SD_BALANCE_EXEC): at exec the task's memory
        image is discarded, so it is the cheapest possible moment to move it;
        the stock kernel re-places it on the idlest admissible CPU."""
        if task.state == TaskState.EXITED:
            raise ValueError("exec on an exited task")
        if task in self._park_waiters:
            return  # born parked: it is placed when it wakes
        target = self._select_cpu(task, "exec")
        if task.cpu is None or target == task.cpu:
            return
        if task.state == TaskState.RUNNABLE:
            self.core.migrate_queued(task, target)
        elif task.state == TaskState.RUNNING:
            self.core.active_migrate_running(task.cpu, target)
        else:
            self.core.set_task_cpu(task, target)

    def sched_setaffinity(self, task: Task, cpus: frozenset) -> None:
        """Bind *task* to *cpus*.  If the task currently sits on a forbidden
        CPU it is moved immediately (as the syscall does)."""
        if not cpus:
            raise ValueError("affinity mask cannot be empty")
        bad = [c for c in cpus if not 0 <= c < self.machine.n_cpus]
        if bad:
            raise ValueError(f"no such CPUs: {bad}")
        task.affinity = frozenset(cpus)
        if task.cpu is not None and task.cpu not in task.affinity:
            online_allowed = [c for c in task.affinity if self.core.cpu_online[c]]
            if not online_allowed:
                # The new mask names only offline CPUs: park until one
                # returns (the syscall would block/fail; parking keeps the
                # model's forced-binding semantics).
                self.core.park_task(task)
                if task.alive and task not in self._park_waiters:
                    self._park_waiters.append(task)
                return
            target = min(online_allowed)
            if task.state == TaskState.RUNNABLE:
                self.core.migrate_queued(task, target)
            elif task.state == TaskState.RUNNING:
                self.core.active_migrate_running(task.cpu, target)
            else:
                task.cpu = target  # takes effect at next wakeup

    def set_nice(self, task: Task, nice: int) -> None:
        if task.state == TaskState.RUNNABLE:
            raise ValueError("renicing a queued task is not modelled")
        if not -20 <= nice <= 19:
            raise ValueError("nice out of range")
        task.nice = nice
        task.refresh_sched_flags()

    # -- execution-flow API --------------------------------------------------
    # ``set_segment(task, work, on_end)`` and ``set_spin(task)`` are the
    # scheduler core's own bound methods, installed in ``__init__``.

    def block(self, task: Task) -> None:
        if task.state != TaskState.RUNNING:
            raise ValueError(f"only the running task can block, not {task!r}")
        self.core.block_current(task.cpu)  # type: ignore[arg-type]

    def block_soon(self, task: Task, on_blocked: Callable[[], None]) -> None:
        """Block *task* at its next opportunity.

        If it runs, block immediately.  If it was preempted (e.g. by a child
        it just forked — fork wakeups may preempt the parent), it blocks the
        moment it regains the CPU, as a real process heading into ``wait()``
        would.  *on_blocked* fires once asleep (use it to arm the wakeup).
        """
        if task.state == TaskState.RUNNING:
            self.core.block_current(task.cpu)  # type: ignore[arg-type]
            on_blocked()
        elif task.state == TaskState.RUNNABLE:
            def _then() -> None:
                self.core.block_current(task.cpu)  # type: ignore[arg-type]
                on_blocked()

            self.core.set_segment(task, 1, _then)
        else:
            raise ValueError(f"block_soon on {task!r}")

    def wake(self, task: Task) -> None:
        if self._offline_count and not self.core.has_online_cpu_for(task):
            # Hotplug took every CPU this task may run on: defer the wakeup
            # until one returns (per-CPU kthread parking).
            if task not in self._park_waiters:
                self._park_waiters.append(task)
            return
        self.core.wake_up(task)

    def exit(self, task: Task) -> None:
        if task.state != TaskState.RUNNING:
            raise ValueError(f"only the running task can exit, not {task!r}")
        self.core.exit_current(task.cpu)  # type: ignore[arg-type]

    def kill(self, task: Task) -> None:
        """Forcibly terminate *task* from any state (the SIGKILL analog —
        used by fault injection for rank crashes and job aborts)."""
        if task.state == TaskState.EXITED:
            return
        if task.is_idle:
            raise ValueError("cannot kill the idle task")
        if task.state == TaskState.RUNNING:
            self.core.exit_current(task.cpu)  # type: ignore[arg-type]
            return
        if task.state == TaskState.RUNNABLE:
            self.core.remove_queued(task)
        task.state = TaskState.EXITED
        task.exited_at = self.now
        task.spinning = False
        task.on_segment_end = None

    def sched_yield(self, task: Task) -> None:
        if task.state != TaskState.RUNNING:
            raise ValueError("sched_yield from a non-running task")
        self.core.yield_current(task.cpu)  # type: ignore[arg-type]

    # -- CPU hotplug ---------------------------------------------------------

    def offline_cpu(self, cpu: int, at: Optional[int] = None) -> Optional[HotplugReport]:
        """Hot-unplug *cpu* now, or schedule it for simulated time *at*.

        Immediate calls return the :class:`HotplugReport` of evacuated and
        parked tasks; scheduled calls return None (the report is visible to
        the fault injector's log instead).  Tasks that can run elsewhere are
        force-migrated (counted as ``cpu-migrations``); per-CPU-pinned tasks
        are parked asleep until :meth:`online_cpu`."""
        if at is not None:
            self.sim.at(
                at, lambda: self.offline_cpu(cpu), priority=3,
                label=f"hotplug:offline{cpu}",
            )
            return None
        report = self.core.offline_cpu(cpu)
        self._offline_count += 1
        for task in report.parked:
            if task not in self._park_waiters:
                self._park_waiters.append(task)
        return report

    def online_cpu(self, cpu: int, at: Optional[int] = None) -> Optional[int]:
        """Bring *cpu* back now (or at time *at*).  Re-wakes every parked
        task the returning CPU makes placeable again; returns how many were
        woken (None for scheduled calls)."""
        if at is not None:
            self.sim.at(
                at, lambda: self.online_cpu(cpu), priority=3,
                label=f"hotplug:online{cpu}",
            )
            return None
        self.core.online_cpu(cpu)
        self._offline_count -= 1
        woken = 0
        still_waiting: List[Task] = []
        for task in self._park_waiters:
            if not task.alive or task.state != TaskState.SLEEPING:
                continue  # killed, or resurrected through another path
            if self.core.has_online_cpu_for(task):
                self.core.wake_up(task)
                woken += 1
            else:
                still_waiting.append(task)
        self._park_waiters = still_waiting
        return woken

    def online_cpus(self) -> List[int]:
        return self.core.online_cpu_ids()

    def set_speed_scale(self, factor: float) -> None:
        """Scale this node's effective compute rate (straggler injection).

        ``factor`` in (0, 1] — 1.0 restores full speed.  Running tasks are
        checkpointed at the old rate and re-programmed at the new one."""
        self.core.set_speed_scale(factor)

    @property
    def speed_scale(self) -> float:
        return self.core._speed_scale

    # -- measurement ----------------------------------------------------------

    def perf_session(self) -> PerfSession:
        return PerfSession(self.perf)

    def runnable_counts(self) -> Dict[int, int]:
        """Per-CPU runnable task counts (diagnostics)."""
        return {
            rq.cpu_id: rq.nr_runnable() for rq in self.core.rqs
        }

    def __repr__(self) -> str:
        return f"<Kernel {self.config.variant} on {self.machine.describe()}>"
