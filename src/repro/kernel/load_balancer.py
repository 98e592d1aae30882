"""Per-domain load balancing, stock-Linux style.

The paper blames the stock balancer for most CPU migrations: "The Linux load
balancer does not distinguish between the parallel application and the rest
of the user and kernel daemons and balances the load assigning (roughly) the
same number of runnable tasks to each core" (§III).  Following that
description, balancing here is **runnable-count based**, per scheduling
class, over the scheduling-domain tree of :mod:`repro.topology.domains`.

Implemented mechanisms (each a config switch so HPL — and the ablation
benches — can turn them off independently):

* **periodic balancing** — per-CPU timers walking the domain chain; busy
  CPUs balance rarely (``busy_factor``), balanced domains back off
  exponentially, *pinned-blocked* domains retry at the base interval while
  charging their direct cost (the §IV static-affinity pathology);
* **new-idle balancing** — a CPU about to idle pulls a queued task from the
  busiest CPU in each domain ("the idle CPU tries to pull tasks from other
  run-queue lists", §IV);
* **RT active pull** — with few RT tasks, an idling CPU finds no *queued* RT
  task but may still trigger a migration-daemon-assisted move of a *running*
  RT task ("the idle processor may pull a task from any busy CPU, triggering
  any sort of task migration", §IV) — the mechanism behind Fig. 4's residual
  noise;
* **fork placement** — the child goes to the idlest admissible CPU
  (SD_BALANCE_FORK);
* **wake placement** — a waking task prefers its previous CPU, else an idle
  CPU nearby (SD_BALANCE_WAKE), which is how daemons end up landing on top
  of MPI ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RngStreams
from repro.topology.domains import SchedDomain
from repro.topology.machine import Machine
from repro.kernel.sched_core import SchedCore
from repro.kernel.task import Task, TaskState

__all__ = ["LoadBalancerConfig", "LoadBalancer"]


@dataclass(frozen=True)
class LoadBalancerConfig:
    """Balancer behaviour switches and costs."""

    #: Master switch: False disables every mechanism outright.
    enabled: bool = True
    #: The HPL regime: balancing machinery exists but is suppressed whenever
    #: any HPC task is runnable — "HPL performs no load balancing for any
    #: scheduling class" while the application runs, yet "HPL does not
    #: prevent load balancing for such [CFS] tasks if there are no runnable
    #: HPC tasks" (§V).
    hpc_gated: bool = False
    periodic: bool = True
    newidle: bool = True
    fork_balance: bool = True
    exec_balance: bool = True
    wake_balance: bool = True
    #: Direct cost (µs) charged to the balancing CPU per balance attempt.
    balance_cost: int = 12
    #: Busy CPUs stretch their periodic interval by this factor.
    busy_factor: int = 16
    #: Exponential backoff cap for balanced domains.
    max_backoff: int = 32
    #: Minimum runnable-count gap (busiest − local) that counts as imbalance.
    imbalance_threshold: int = 2
    #: Probability that a new-idle pass with no queued RT candidate resorts
    #: to active migration of a running RT task.
    rt_active_pull_prob: float = 0.20

    def __post_init__(self) -> None:
        if self.balance_cost < 0:
            raise ValueError("balance_cost cannot be negative")
        if self.busy_factor < 1 or self.max_backoff < 1:
            raise ValueError("factors must be >= 1")
        if self.imbalance_threshold < 1:
            raise ValueError("imbalance_threshold must be >= 1")
        if not 0.0 <= self.rt_active_pull_prob <= 1.0:
            raise ValueError("rt_active_pull_prob must be a probability")


#: Classes the stock balancer moves tasks of, in pull-preference order.
_BALANCED_CLASSES = ("rt", "fair")


class LoadBalancer:
    """The stock kernel's balancing machinery."""

    def __init__(
        self,
        core: SchedCore,
        domains: Dict[int, List[SchedDomain]],
        rng: RngStreams,
        config: LoadBalancerConfig = LoadBalancerConfig(),
    ) -> None:
        self.core = core
        self.machine: Machine = core.machine
        self.domains = domains
        self.rng = rng
        self.config = config
        #: Per-(cpu, domain-level) backoff multiplier.
        self._backoff: Dict[Tuple[int, str], int] = {}
        #: Statistics for tests/reports.
        self.stats = {
            "periodic_attempts": 0,
            "periodic_pulls": 0,
            "newidle_attempts": 0,
            "newidle_pulls": 0,
            "rt_active_pulls": 0,
            "pinned_blocked": 0,
        }
        self._started = False
        #: Instant of the last active RT pull — at most one per simulated
        #: instant, or two idling CPUs ping-pong a running task forever.
        self._last_active_pull: int = -1

    def _gated(self) -> bool:
        """True when the HPL gate is closed (an HPC task is runnable)."""
        if not self.config.hpc_gated:
            return False
        for rq in self.core.rqs:
            if "hpc" in rq.queues and rq.nr_runnable("hpc") > 0:
                return True
        return False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Arm the periodic balance timers and install the new-idle hook."""
        if not self.config.enabled:
            return
        if self._started:
            raise RuntimeError("balancer already started")
        self._started = True
        if self.config.newidle:
            self.core.newidle_hook = self.newidle_balance
        if self.config.periodic:
            for cpu_id in range(self.machine.n_cpus):
                self._arm_timer(cpu_id)

    def _arm_timer(self, cpu_id: int) -> None:
        delay = self._next_interval(cpu_id)
        self.core.sim.after(
            delay,
            lambda cpu_id=cpu_id: self._periodic_fire(cpu_id),
            priority=8,
            label=f"balance:cpu{cpu_id}",
        )

    def _next_interval(self, cpu_id: int) -> int:
        chain = self.domains[cpu_id]
        if not chain:
            return 1_000_000
        busy = not self.core.cpu_is_idle(cpu_id)
        best = None
        for dom in chain:
            interval = dom.base_interval * self._backoff.get((cpu_id, dom.level), 1)
            if busy:
                interval *= self.config.busy_factor
            if best is None or interval < best:
                best = interval
        # Small deterministic jitter desynchronizes the per-CPU timers.
        jitter = self.rng.integers("lb.jitter", 0, 1000)
        return int(best) + jitter

    # ------------------------------------------------------------- periodic

    def _periodic_fire(self, cpu_id: int) -> None:
        # An offline CPU balances nothing but keeps its timer armed, so it
        # resumes pulling work the moment it is brought back online.
        if self.core.cpu_online[cpu_id] and not self._gated():
            for dom in self.domains[cpu_id]:
                self._balance_domain(cpu_id, dom)
        self._arm_timer(cpu_id)

    def _balance_domain(self, cpu_id: int, dom: SchedDomain) -> None:
        self.stats["periodic_attempts"] += 1
        self.core.perf.record_balance_attempt()
        self.core.charge_overhead(cpu_id, self.config.balance_cost)
        local_count = self._group_count(dom.local_group)
        busiest_group = None
        busiest_count = local_count
        for group in dom.peer_groups():
            count = self._group_count(group)
            if count > busiest_count:
                busiest_count = count
                busiest_group = group
        key = (cpu_id, dom.level)
        if (
            busiest_group is None
            or busiest_count - local_count < self.config.imbalance_threshold
        ):
            # Balanced: back off.
            self._backoff[key] = min(
                self._backoff.get(key, 1) * 2, self.config.max_backoff
            )
            return
        moved, pinned_blocked = self._pull_from_group(busiest_group, cpu_id)
        if moved:
            self.stats["periodic_pulls"] += 1
            self.core.perf.record_balance_pull()
            self._backoff[key] = 1
        elif pinned_blocked:
            # Imbalance persists but nothing can move: the kernel keeps
            # retrying at the base interval (the §IV affinity pathology).
            self.stats["pinned_blocked"] += 1
            self._backoff[key] = 1
        else:
            self._backoff[key] = min(
                self._backoff.get(key, 1) * 2, self.config.max_backoff
            )

    # -------------------------------------------------------------- newidle

    def newidle_balance(self, cpu_id: int) -> bool:
        """Pull work onto an about-to-idle CPU.  Returns True if a task was
        moved here."""
        if not self.config.enabled or not self.config.newidle:
            return False
        if not self.core.cpu_online[cpu_id]:
            return False  # a dead CPU pulls nothing
        if self._gated():
            return False
        self.stats["newidle_attempts"] += 1
        self.core.perf.record_balance_attempt()
        self.core.charge_overhead(cpu_id, self.config.balance_cost)
        saw_running_rt: Optional[int] = None
        for dom in self.domains[cpu_id]:
            for src in dom.span:
                if src == cpu_id:
                    continue
                rq = self.core.rqs[src]
                task = self._steal_candidate(rq, cpu_id)
                if task is not None:
                    self.core.migrate_queued(task, cpu_id)
                    self.stats["newidle_pulls"] += 1
                    self.core.perf.record_balance_pull()
                    return True
                if (
                    saw_running_rt is None
                    and rq.curr is not None
                    and rq.curr.is_rt
                    and rq.curr.allows_cpu(cpu_id)
                ):
                    saw_running_rt = src
        # No queued candidate anywhere.  With RT tasks the kernel's push/pull
        # machinery (migration daemon at RT prio 99) may still relocate a
        # *running* task toward the idle CPU.
        if (
            saw_running_rt is not None
            and self.core.sim.now > self._last_active_pull
            and self.rng.random("lb.rt_pull") < self.config.rt_active_pull_prob
        ):
            self._last_active_pull = self.core.sim.now
            moved = self.core.active_migrate_running(saw_running_rt, cpu_id)
            if moved is not None:
                self.stats["rt_active_pulls"] += 1
                self.core.perf.record_balance_pull()
                return True
        return False

    # -------------------------------------------------------------- helpers

    def _group_count(self, group: Sequence[int]) -> int:
        """Runnable tasks of balanced classes across a group's CPUs."""
        total = 0
        for cpu in group:
            rq = self.core.rqs[cpu]
            for name in _BALANCED_CLASSES:
                if name in rq.queues:
                    total += rq.nr_runnable(name)
        return total

    def _steal_candidate(self, rq, dst_cpu: int) -> Optional[Task]:
        """A queued task on *rq* that may move to *dst_cpu* (random choice —
        the kernel's pick depends on cache-hotness heuristics that amount to
        'any of them' at this modelling altitude)."""
        candidates: List[Task] = []
        for name in _BALANCED_CLASSES:
            queue = rq.queues.get(name)
            if queue is None or not queue.nr_running:
                continue  # nothing queued: skip building an empty list
            cls = rq._class_by_name[name]
            for task in cls.steal_candidates(queue):
                if task.state == TaskState.RUNNABLE and task.allows_cpu(dst_cpu):
                    candidates.append(task)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        idx = self.rng.integers("lb.steal", 0, len(candidates))
        return candidates[idx]

    def _pull_from_group(
        self, group: Sequence[int], dst_cpu: int
    ) -> Tuple[bool, bool]:
        """Try to pull one task from the busiest CPU of *group* to
        *dst_cpu*.  Returns (moved, pinned_blocked)."""
        busiest = max(group, key=lambda c: self.core.rqs[c].nr_runnable())
        rq = self.core.rqs[busiest]
        if rq.nr_runnable() <= 1:
            return False, False
        task = self._steal_candidate(rq, dst_cpu)
        if task is None:
            # Queued work exists but nothing admissible: pinned.
            has_queued = rq.nr_queued() > 0
            return False, has_queued
        self.core.migrate_queued(task, dst_cpu)
        return True, False

    # ------------------------------------------------------------ placement

    def select_cpu(self, task: Task, reason: str) -> int:
        """SD_BALANCE_FORK / SD_BALANCE_WAKE placement.  Offline CPUs are
        never candidates (hotplug removes them from every domain mask)."""
        prev = task.cpu if task.cpu is not None else 0
        prev_usable = task.allows_cpu(prev) and self.core.cpu_online[prev]
        if not self.config.enabled or self._gated():
            return prev if prev_usable else self._first_allowed(task)
        if reason == "fork" and self.config.fork_balance:
            return self._idlest_cpu(task)
        if reason == "exec" and self.config.exec_balance:
            return self._idlest_cpu(task)
        if reason == "wake" and self.config.wake_balance:
            return self._wake_cpu(task, prev)
        return prev if prev_usable else self._first_allowed(task)

    def _first_allowed(self, task: Task) -> int:
        online = self.core.cpu_online
        for cpu in self.machine.cpus:
            if online[cpu.cpu_id] and task.allows_cpu(cpu.cpu_id):
                return cpu.cpu_id
        raise ValueError(f"{task!r} has no online admissible CPU")

    def _idlest_cpu(self, task: Task) -> int:
        online = self.core.cpu_online
        allowed = [
            c.cpu_id
            for c in self.machine.cpus
            if online[c.cpu_id] and task.allows_cpu(c.cpu_id)
        ]
        if not allowed:
            raise ValueError(f"{task!r} has no online admissible CPU")
        counts = [(self.core.rqs[c].nr_runnable(), c) for c in allowed]
        least = min(n for n, _ in counts)
        ties = [c for n, c in counts if n == least]
        if len(ties) == 1:
            return ties[0]
        return ties[self.rng.integers("lb.fork", 0, len(ties))]

    def evac_cpu(self, task: Task) -> Optional[int]:
        """Hotplug evacuation destination: the least-loaded online
        admissible CPU.  Deterministic (lowest id wins ties) and RNG-free —
        evacuation must not disturb the placement random streams."""
        online = self.core.cpu_online
        allowed = [
            c.cpu_id
            for c in self.machine.cpus
            if online[c.cpu_id] and task.allows_cpu(c.cpu_id)
        ]
        if not allowed:
            return None
        return min(allowed, key=lambda c: (self.core.rqs[c].nr_runnable(), c))

    def _wake_cpu(self, task: Task, prev: int) -> int:
        online = self.core.cpu_online
        if task.allows_cpu(prev) and online[prev] and self.core.cpu_is_idle(prev):
            return prev
        # Search outward from prev for an idle CPU: core, chip, machine.
        prev_thread = self.machine.cpu(prev)
        rings = [
            [t.cpu_id for t in prev_thread.core.threads],
            [t.cpu_id for t in prev_thread.chip.threads],
            [t.cpu_id for t in self.machine.cpus],
        ]
        for ring in rings:
            idle = [
                c
                for c in ring
                if c != prev
                and online[c]
                and task.allows_cpu(c)
                and self.core.cpu_is_idle(c)
            ]
            if idle:
                if len(idle) == 1:
                    return idle[0]
                return idle[self.rng.integers("lb.wake", 0, len(idle))]
        if task.allows_cpu(prev) and online[prev]:
            return prev
        return self._first_allowed(task)
