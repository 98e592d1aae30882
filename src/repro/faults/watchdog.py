"""Starvation watchdog: the soft-lockup detector analog.

Linux's watchdog flags a CPU whose kthreads make no progress; here the
interesting pathology is the inverse of a lockup — it is *by design*.  Under
the HPL kernel a spinning HPC rank never yields to the fair class, so
per-CPU daemons sit runnable for entire compute phases (§V/§VI: the paper
*wants* daemons deferred, but a deployment needs to see that it is
happening).  The watchdog samples the run queues on a fixed period and
records an incident whenever a runnable fair-class task has been waiting
longer than the starvation threshold.

The watchdog is passive: it reads scheduler state, draws no random numbers
and never touches a task, so an armed watchdog leaves the run's results
bit-identical (same discipline as the obs layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.kernel.kernel import Kernel

__all__ = ["WatchdogConfig", "StarvationIncident", "StarvationWatchdog"]


@dataclass(frozen=True)
class WatchdogConfig:
    """Sampling cadence and starvation threshold."""

    #: Sampling period, µs (the real watchdog's sample_period analog).
    interval: int = 100_000
    #: A runnable fair task waiting longer than this is starved, µs (the
    #: soft-lockup default is 2 * watchdog_thresh; 1 s here).
    threshold: int = 1_000_000

    def __post_init__(self) -> None:
        if self.interval < 1 or self.threshold < 1:
            raise ValueError("interval and threshold must be positive")


@dataclass(frozen=True)
class StarvationIncident:
    """One starvation episode, recorded at first detection."""

    time: int
    cpu: int
    pid: int
    name: str
    #: How long the task had been waiting when flagged, µs.
    waited_us: int


class StarvationWatchdog:
    """Periodic run-queue scanner flagging starved fair-class tasks."""

    def __init__(self, kernel: Kernel, config: WatchdogConfig = WatchdogConfig()) -> None:
        self.kernel = kernel
        self.config = config
        self.incidents: List[StarvationIncident] = []
        #: pid -> True while the task is inside an already-flagged episode
        #: (re-flag only after it has run again).
        self._flagged: Dict[int, bool] = {}
        self._event = None
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("watchdog already started")
        self._running = True
        self.kernel.watchdog = self
        self._arm()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _arm(self) -> None:
        self._event = self.kernel.sim.after(
            self.config.interval, self._scan, priority=9, label="watchdog:scan"
        )

    def _scan(self) -> None:
        self._event = None
        if not self._running:
            return
        now = self.kernel.now
        core = self.kernel.core
        flagged_now: Dict[int, bool] = {}
        for rq in core.rqs:
            if not core.cpu_online[rq.cpu_id]:
                continue
            queue = rq.queues.get("fair")
            if queue is None:
                continue
            for task in queue.queued_tasks():
                waited = now - max(task.last_ran_at, task.created_at)
                if waited < self.config.threshold:
                    continue
                flagged_now[task.pid] = True
                if self._flagged.get(task.pid):
                    continue  # same episode, already reported
                self.incidents.append(
                    StarvationIncident(
                        time=now,
                        cpu=rq.cpu_id,
                        pid=task.pid,
                        name=task.name,
                        waited_us=waited,
                    )
                )
        # Episodes end the moment a task stops being queued-and-starving;
        # the next time it starves that is a fresh incident.
        self._flagged = flagged_now
        self._arm()

    # ------------------------------------------------------------- reports

    def starved_pids(self) -> List[int]:
        return sorted({i.pid for i in self.incidents})

    def worst_wait_us(self) -> Optional[int]:
        if not self.incidents:
            return None
        return max(i.waited_us for i in self.incidents)
