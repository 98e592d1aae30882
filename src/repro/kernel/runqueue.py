"""Per-CPU run queue aggregating every scheduling class's queue.

Mirrors ``struct rq``: one per CPU, holding the class queues in priority
order plus the currently running task.  The running task is never inside a
class queue (see :mod:`repro.kernel.sched_class`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.kernel.sched_class import ClassQueue, SchedClass
from repro.kernel.task import Task

__all__ = ["CpuRunqueue"]


class CpuRunqueue:
    """The scheduler state of one CPU."""

    __slots__ = (
        "cpu_id",
        "classes",
        "queues",
        "_class_by_name",
        "_class_by_policy",
        "_rank_by_name",
        "_serving",
        "_work_queues",
        "curr",
        "exec_start",
        "timer_event",
        "timer_kind",
        "rt_throttled",
    )

    def __init__(self, cpu_id: int, classes: Sequence[SchedClass]) -> None:
        self.cpu_id = cpu_id
        #: Scheduling classes, highest priority first (shared across CPUs).
        self.classes: List[SchedClass] = list(classes)
        #: Per-class queues, keyed by class name.
        self.queues: Dict[str, ClassQueue] = {
            cls.name: cls.new_queue(cpu_id) for cls in classes
        }
        self._class_by_name: Dict[str, SchedClass] = {c.name: c for c in classes}
        #: Policy -> serving class, precomputed so the per-event hot path
        #: (update_curr, pick, preemption checks) never walks the class
        #: list.  ``setdefault`` preserves the priority-order semantics of
        #: the old linear scan: the highest-priority class serving a policy
        #: wins.
        self._class_by_policy: Dict[str, SchedClass] = {}
        for cls in classes:
            for policy in cls.policies:
                self._class_by_policy.setdefault(policy, cls)
        self._rank_by_name: Dict[str, int] = {
            cls.name: rank for rank, cls in enumerate(classes)
        }
        #: Policy -> ``(class, class queue, rank)``, the fully fused lookup
        #: the scheduler core's per-event path uses: one dict probe replaces
        #: the class_of + queues[name] + class_rank triple.
        self._serving: Dict[str, tuple] = {
            policy: (cls, self.queues[cls.name], self._rank_by_name[cls.name])
            for policy, cls in self._class_by_policy.items()
        }
        #: The class queues that hold real work — everything but the idle
        #: class — prebuilt so the occupancy counters below iterate a list
        #: instead of filtering the dict by name on every call.
        self._work_queues: List[ClassQueue] = [
            q for name, q in self.queues.items() if name != "idle"
        ]
        #: Currently running task (the idle task when the CPU is idle).
        self.curr: Optional[Task] = None
        #: Simulated time at which ``curr`` was last put on the CPU /
        #: last had its accounting brought up to date.
        self.exec_start = 0
        #: The pending timer event for this CPU (slice expiry or segment
        #: completion), owned by the scheduler core.  While a task's segment
        #: handler runs, the core leaves that task's timer unarmed and arms
        #: it once, after the handler returns.
        self.timer_event = None
        #: What the pending timer was armed for (``"complete"`` or
        #: ``"slice"``) — diagnostic state kept by the scheduler core.
        self.timer_kind = ""
        #: Whether this CPU's RT class has exhausted its bandwidth budget
        #: (reserved for an RT-throttling extension; currently never set).
        #: The per-core lazy cache-eviction clock this slot once claimed to
        #: mirror lives solely in ``SchedCore._core_clock``.
        self.rt_throttled = False

    # ------------------------------------------------------------- helpers

    def class_of(self, task: Task) -> SchedClass:
        """The scheduling class serving *task*'s policy."""
        cls = self._class_by_policy.get(task.policy)
        if cls is None:
            raise ValueError(
                f"no class on cpu {self.cpu_id} serves policy {task.policy!r} "
                f"(classes: {[c.name for c in self.classes]})"
            )
        return cls

    def class_rank(self, cls: SchedClass) -> int:
        """Priority position of *cls* (0 = highest)."""
        return self._rank_by_name[cls.name]

    def queue_for(self, task: Task) -> ClassQueue:
        return self.queues[self.class_of(task).name]

    def nr_queued(self, class_name: Optional[str] = None) -> int:
        """Queued (not running) tasks, optionally restricted to one class.
        The parked idle task never counts as queued work."""
        if class_name is not None:
            return self.queues[class_name].nr_running
        count = 0
        for q in self._work_queues:
            count += q.nr_running
        return count

    def nr_runnable(self, class_name: Optional[str] = None) -> int:
        """Queued + running tasks of *class_name* (or all classes).  The
        idle task never counts as runnable load."""
        count = 0
        if class_name is None:
            for q in self._work_queues:
                count += q.nr_running
            if self.curr is not None and not self.curr.is_idle:
                count += 1
            return count
        count = self.queues[class_name].nr_running
        if (
            self.curr is not None
            and not self.curr.is_idle
            and self._class_by_name[class_name] is self.class_of(self.curr)
        ):
            count += 1
        return count

    def is_idle(self) -> bool:
        return self.curr is None or self.curr.is_idle

    def __repr__(self) -> str:
        counts = {name: q.nr_running for name, q in self.queues.items()}
        return f"<rq cpu={self.cpu_id} curr={self.curr and self.curr.name} {counts}>"
