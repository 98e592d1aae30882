"""One-call kernel instrumentation: :class:`KernelObserver`.

Bundles the individual observability pieces — event trace, latency
accounting, per-class/per-task counters — and attaches them to a kernel
through the first-class hook points.  Construction is the only moment of
wiring; afterwards the observer is a passive record that the CLI, the
campaign runner and the tests read from.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.obs.latency import LatencyAccounting
from repro.sim.trace import SchedTrace, attach_trace

__all__ = ["KernelObserver", "observe"]


class KernelObserver:
    """All observability channels attached to one kernel.

    Attributes become ``None`` for channels switched off at construction:

    * ``trace``   — :class:`SchedTrace` ring buffer (``with_trace``);
    * ``latency`` — :class:`LatencyAccounting` (``with_latency``);
    * counters    — enables the perf fabric's per-class and per-task
      breakdowns in place (``with_counters``); read them through
      ``kernel.perf.class_snapshot()`` / ``task_snapshot()``.

    The observer registers itself as ``kernel.observer``, so a finished run
    finds it on its kernel.
    """

    def __init__(
        self,
        kernel,
        *,
        capacity: int = 200_000,
        with_trace: bool = True,
        with_latency: bool = True,
        with_counters: bool = True,
    ) -> None:
        self.kernel = kernel
        kernel.observer = self
        self.trace: Optional[SchedTrace] = (
            attach_trace(kernel, capacity) if with_trace else None
        )
        self.latency: Optional[LatencyAccounting] = (
            LatencyAccounting().attach(kernel) if with_latency else None
        )
        if with_counters:
            kernel.perf.enable_class_accounting()
            kernel.perf.enable_task_accounting()

    # -------------------------------------------------------------- helpers

    def names(self) -> Dict[int, str]:
        """pid -> task name for every task the kernel has ever seen."""
        return {pid: t.name for pid, t in self.kernel.tasks.items()}

    def idle_pids(self) -> Set[int]:
        return {pid for pid, t in self.kernel.tasks.items() if t.is_idle}


def observe(kernel, **kwargs) -> KernelObserver:
    """Attach a :class:`KernelObserver` to *kernel* (convenience alias)."""
    return KernelObserver(kernel, **kwargs)
