"""The Completely Fair Scheduler class.

This models the CFS behaviours the paper identifies as HPC-hostile:

* **virtual runtime fairness** — each task's ``vruntime`` advances while it
  runs, scaled inversely by its nice weight; the queued task with the lowest
  vruntime runs next;
* **sleeper credit** — a task that wakes from sleep is placed slightly
  *behind* the queue's ``min_vruntime`` ("the dynamic priority increases
  while a process sleeps, so that when the task again becomes runnable its
  probability of obtaining a CPU is high", §IV) — this is precisely why a
  freshly-woken statistics daemon preempts a compute-bound MPI rank;
* **wakeup preemption** with a granularity hysteresis;
* **timeslices** derived from a target latency divided among runnable tasks,
  floored by a minimum granularity.

Parameters default to the 2.6.3x values (6 ms latency, 0.75 ms minimum
granularity, 1 ms wakeup granularity — the kernel scales these by
``1 + log2(ncpus)``; we use the scaled-for-8-CPUs values directly).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Optional

from repro.units import msecs
from repro.kernel.sched_class import ClassQueue, SchedClass
from repro.kernel.task import NICE_0_WEIGHT, SchedPolicy, Task

__all__ = ["CfsParams", "CfsQueue", "CfsClass"]


@dataclass(frozen=True)
class CfsParams:
    """Tunables mirroring ``/proc/sys/kernel/sched_*`` (µs)."""

    #: Target preemption latency for one full rotation of the queue.
    sched_latency: int = msecs(24)
    #: Floor on any single slice.
    min_granularity: int = msecs(3)
    #: A waking task must lead the current one by this much vruntime to
    #: preempt it.
    wakeup_granularity: int = msecs(4)
    #: Maximum sleeper credit: a waking sleeper is placed at
    #: ``min_vruntime - gentle_sleeper_credit`` (GENTLE_FAIR_SLEEPERS halves
    #: the full latency credit).
    gentle_sleeper_credit: int = msecs(12)

    def __post_init__(self) -> None:
        if min(self.sched_latency, self.min_granularity, self.wakeup_granularity) <= 0:
            raise ValueError("CFS parameters must be positive")
        if self.gentle_sleeper_credit < 0:
            raise ValueError("sleeper credit cannot be negative")


class CfsQueue(ClassQueue):
    """Per-CPU CFS run queue: tasks kept sorted by vruntime.

    The sorted-list stand-in for the kernel's red-black tree is appropriate
    at simulation scale (a handful of runnable tasks per CPU); operations
    stay O(n) with tiny constants.
    """

    def __init__(self, cpu_id: int) -> None:
        super().__init__(cpu_id)
        self._entries: List[tuple] = []  # (vruntime, pid, Task), sorted
        self.min_vruntime = 0
        #: Total load weight of queued tasks (used by the load balancer).
        self.load_weight = 0

    def queued_tasks(self) -> List[Task]:
        return [entry[2] for entry in self._entries]

    def insert(self, task: Task) -> None:
        insort(self._entries, (task.vruntime, task.pid, task))
        self.nr_running += 1
        self.load_weight += task.weight

    def remove(self, task: Task) -> None:
        for i, entry in enumerate(self._entries):
            if entry[2] is task:
                del self._entries[i]
                self.nr_running -= 1
                self.load_weight -= task.weight
                return
        raise ValueError(f"{task!r} not on CFS queue of cpu {self.cpu_id}")

    def leftmost(self) -> Optional[Task]:
        return self._entries[0][2] if self._entries else None

    def update_min_vruntime(self, curr: Optional[Task]) -> None:
        """Advance (monotonically) the queue's floor vruntime.

        Branch-only form of ``max(floor, min(candidates))`` — this runs on
        every accounting checkpoint, so it avoids building the candidate
        list 20k+ times per simulated second."""
        entries = self._entries
        vmin = entries[0][0] if entries else None
        if curr is not None and curr.is_fair:
            cv = curr.vruntime
            if vmin is None or cv < vmin:
                vmin = cv
        if vmin is not None and vmin > self.min_vruntime:
            self.min_vruntime = vmin


class CfsClass(SchedClass):
    """The fair scheduling class."""

    name = "fair"
    policies = SchedPolicy.FAIR
    balanced = True

    def __init__(self, params: CfsParams = CfsParams()) -> None:
        self.params = params

    # ----------------------------------------------------------- queue mgmt

    def new_queue(self, cpu_id: int) -> CfsQueue:
        return CfsQueue(cpu_id)

    def enqueue(self, queue: CfsQueue, task: Task, *, wakeup: bool) -> None:
        if wakeup:
            # Sleeper credit: place the waker just behind the queue floor so
            # it runs soon — but never push an already-behind task forward.
            credit = self.params.gentle_sleeper_credit
            task.vruntime = max(task.vruntime, queue.min_vruntime - credit)
        else:
            # A migrated or requeued task must not dominate the new queue if
            # its old queue's clock ran behind this one's.
            task.vruntime = max(task.vruntime, queue.min_vruntime - self.params.sched_latency)
        queue.insert(task)

    def dequeue(self, queue: CfsQueue, task: Task) -> None:
        queue.remove(task)
        queue.update_min_vruntime(None)

    def pick_next(self, queue: CfsQueue) -> Optional[Task]:
        task = queue.leftmost()
        if task is None:
            return None
        queue.remove(task)
        task.slice_used = 0
        return task

    def put_prev(self, queue: CfsQueue, task: Task) -> None:
        queue.insert(task)
        queue.update_min_vruntime(None)

    # ------------------------------------------------------------ decisions

    def check_preempt(self, queue: CfsQueue, curr: Task, woken: Task) -> bool:
        if woken.policy == SchedPolicy.BATCH:
            return False  # batch tasks never preempt on wakeup
        # Weighted granularity: the lead needed shrinks for heavy wakers.
        gran = self.params.wakeup_granularity * NICE_0_WEIGHT // max(woken.weight, 1)
        return woken.vruntime + gran < curr.vruntime

    def task_slice(self, queue: CfsQueue, task: Task) -> Optional[int]:
        nr = queue.nr_running + 1  # queued + the task itself
        if nr <= 1:
            return None  # alone: run until something wakes
        params = self.params
        slice_us = params.sched_latency // nr
        gran = params.min_granularity
        return slice_us if slice_us > gran else gran

    # ------------------------------------------------------------ accounting

    def charge(self, queue: CfsQueue, task: Task, delta: int) -> None:
        w = task.weight
        task.vruntime += delta * NICE_0_WEIGHT // (w if w >= 1 else 1)
        queue.update_min_vruntime(task)

    def yield_task(self, queue: CfsQueue, task: Task) -> None:
        # sched_yield under CFS: forfeit the lead by jumping to the back of
        # the pack (the 2.6.3x implementation moves the entity rightmost).
        rightmost = max((e[0] for e in queue._entries), default=queue.min_vruntime)
        task.vruntime = max(task.vruntime, rightmost)
