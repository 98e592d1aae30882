"""Structured scheduler-event tracing (a ``perf sched record`` analog).

The paper's methodology is counter-based (``perf stat``), but diagnosing
*why* a particular run was slow needs the event stream.  This module records
typed scheduler events — switches, wakeups, migrations, and free-form marks
— into a bounded ring buffer with near-zero cost when disabled, and offers
query helpers the timeline reconstruction (:mod:`repro.analysis.timeline`)
and the debugging examples build on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

__all__ = ["TraceEvent", "TraceKind", "SchedTrace", "attach_trace"]


class TraceKind:
    """Event types recorded by :class:`SchedTrace`."""

    SWITCH = "sched_switch"        #: prev task -> next task on a CPU
    WAKEUP = "sched_wakeup"        #: task became runnable
    MIGRATE = "sched_migrate_task"  #: task moved between CPUs
    MARK = "mark"                  #: free-form annotation

    ALL = (SWITCH, WAKEUP, MIGRATE, MARK)


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Field meaning depends on ``kind``:

    * SWITCH:  ``cpu``, ``pid`` = next task, ``prev_pid`` = displaced task;
    * WAKEUP:  ``cpu`` = target CPU, ``pid`` = woken task;
    * MIGRATE: ``pid`` moved ``prev_cpu -> cpu``;
    * MARK:    ``label`` carries the annotation; ids optional.
    """

    time: int
    kind: str
    cpu: int
    pid: int
    prev_pid: int = -1
    prev_cpu: int = -1
    label: str = ""


class SchedTrace:
    """Bounded ring buffer of :class:`TraceEvent`."""

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.enabled = True

    # -------------------------------------------------------------- recording

    def record(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def switch(self, time: int, cpu: int, prev_pid: int, next_pid: int) -> None:
        self.record(TraceEvent(time, TraceKind.SWITCH, cpu, next_pid, prev_pid=prev_pid))

    def wakeup(self, time: int, cpu: int, pid: int) -> None:
        self.record(TraceEvent(time, TraceKind.WAKEUP, cpu, pid))

    def migrate(self, time: int, pid: int, src_cpu: int, dst_cpu: int) -> None:
        self.record(
            TraceEvent(time, TraceKind.MIGRATE, dst_cpu, pid, prev_cpu=src_cpu)
        )

    def mark(self, time: int, label: str, cpu: int = -1, pid: int = -1) -> None:
        self.record(TraceEvent(time, TraceKind.MARK, cpu, pid, label=label))

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        *,
        kind: Optional[str] = None,
        cpu: Optional[int] = None,
        pid: Optional[int] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Filtered view of the buffer, in time order.

        ``pid`` matches the event's subject task; for SWITCH events it also
        matches the displaced task (``prev_pid``).  Other kinds never match
        on ``prev_pid`` — it is a ``-1`` placeholder there, so matching it
        would alias unrelated events (e.g. ``pid=-1`` pulling in every
        MIGRATE).
        """
        out = []
        for e in self._events:
            if kind is not None and e.kind != kind:
                continue
            if cpu is not None and e.cpu != cpu:
                continue
            if pid is not None and e.pid != pid and not (
                e.kind == TraceKind.SWITCH and e.prev_pid == pid
            ):
                continue
            if start is not None and e.time < start:
                continue
            if end is not None and e.time > end:
                continue
            out.append(e)
        return out

    def to_dicts(self, **filters) -> List[dict]:
        """Events as plain dicts (exporter/serialisation helper).  Keyword
        arguments are passed through to :meth:`events`."""
        return [
            {
                "time": e.time,
                "kind": e.kind,
                "cpu": e.cpu,
                "pid": e.pid,
                "prev_pid": e.prev_pid,
                "prev_cpu": e.prev_cpu,
                "label": e.label,
            }
            for e in self.events(**filters)
        ]

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def iter_all(self) -> Iterator[TraceEvent]:
        return iter(self._events)


def attach_trace(kernel, capacity: int = 200_000) -> SchedTrace:
    """Hook a :class:`SchedTrace` into a kernel's scheduler core and perf
    fabric.  Returns the trace; detach by setting ``trace.enabled = False``.

    Thin wrapper over the first-class observer hooks
    (:attr:`SchedCore.switch_hooks`, :attr:`SchedCore.wakeup_hooks`,
    :attr:`PerfEvents.migration_observers`) — kept as the stable one-call
    API.  Richer observation (latency accounting, per-class counters) lives
    in :class:`repro.obs.KernelObserver`.
    """
    trace = SchedTrace(capacity)

    def on_switch(time: int, cpu: int, prev, next_task) -> None:
        trace.switch(time, cpu, prev.pid if prev is not None else -1, next_task.pid)

    def on_wakeup(time: int, cpu: int, task, is_wakeup: bool) -> None:
        if is_wakeup:
            trace.wakeup(time, cpu, task.pid)

    def on_migration(time: int, pid: int, src_cpu: int, dst_cpu: int) -> None:
        trace.migrate(time, pid, src_cpu, dst_cpu)

    kernel.core.switch_hooks.append(on_switch)
    kernel.core.wakeup_hooks.append(on_wakeup)
    kernel.perf.enable_migration_trace()
    kernel.perf.migration_observers.append(on_migration)
    return trace
