"""Turns a :class:`~repro.faults.plan.FaultPlan` into simulator events.

The injector is armed once, right after the kernel boots; each fault fires
at its scheduled instant through the same public kernel/app surface a test
would use (``Kernel.offline_cpu``, ``MpiApplication.crash_rank``, …), so
faults exercise exactly the recovery paths the model claims to have.

Every application (or skip) is logged to :attr:`FaultInjector.applied` and,
when a :class:`~repro.sim.trace.SchedTrace` is attached, emitted as a MARK
trace event — fault instants then show up in chrome/ftrace exports next to
the scheduling activity they caused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.kernel.kernel import Kernel

__all__ = ["AppliedFault", "FaultInjector"]


@dataclass(frozen=True)
class AppliedFault:
    """One fault firing: what was asked, what actually happened."""

    time: int
    event: FaultEvent
    #: "ok", "ok: <detail>" or "skipped: <reason>".
    note: str

    @property
    def skipped(self) -> bool:
        return self.note.startswith("skipped")


class FaultInjector:
    """Schedules and applies one plan's faults against one kernel."""

    def __init__(
        self,
        kernel: Kernel,
        plan: FaultPlan,
        *,
        app=None,
        trace=None,
        cluster=None,
        node_index: int = 0,
    ) -> None:
        self.kernel = kernel
        self.plan = plan
        #: The MpiApplication rank crashes target (None = crashes skipped).
        self.app = app
        #: Optional SchedTrace receiving a MARK per fault.
        self.trace = trace
        #: Cluster coordinator (``repro.cluster.multinode.ClusterJob``) the
        #: cluster-scoped kinds route through; None = those kinds are
        #: skipped (``node_slowdown`` still works: it scales this kernel).
        self.cluster = cluster
        #: Which node of the cluster this injector is armed on (resolves
        #: ``node=None`` events to "this node").
        self.node_index = node_index
        self.applied: List[AppliedFault] = []
        self._armed = False
        self._spawned = 0

    # -------------------------------------------------------------- arming

    def arm(self) -> None:
        """Schedule every plan event.  Idempotence guard: arm once."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        self.kernel.fault_injector = self
        sim = self.kernel.sim
        for ev in self.plan.events:
            sim.at(
                max(ev.at, sim.now),
                lambda ev=ev: self._fire(ev),
                priority=3,
                label=f"fault:{ev.kind}",
            )

    # -------------------------------------------------------------- firing

    def _fire(self, ev: FaultEvent) -> None:
        handler = {
            FaultKind.CPU_OFFLINE: self._cpu_offline,
            FaultKind.CPU_ONLINE: self._cpu_online,
            FaultKind.RANK_CRASH: self._rank_crash,
            FaultKind.RUNAWAY: self._runaway,
            FaultKind.NOISE_BURST: self._noise_burst,
            FaultKind.NODE_CRASH: self._node_crash,
            FaultKind.NODE_SLOWDOWN: self._node_slowdown,
            FaultKind.LINK_DEGRADE: self._link_degrade,
        }[ev.kind]
        note = handler(ev)
        now = self.kernel.now
        self.applied.append(AppliedFault(time=now, event=ev, note=note))
        if self.trace is not None:
            cpu = ev.cpu if ev.cpu is not None else -1
            self.trace.mark(now, f"fault:{ev.kind} ({note})", cpu=cpu)

    def _cpu_offline(self, ev: FaultEvent) -> str:
        core = self.kernel.core
        assert ev.cpu is not None
        if not 0 <= ev.cpu < self.kernel.machine.n_cpus:
            return f"skipped: no such cpu {ev.cpu}"
        if not core.cpu_online[ev.cpu]:
            return "skipped: already offline"
        if sum(core.cpu_online) == 1:
            return "skipped: last online cpu"
        report = self.kernel.offline_cpu(ev.cpu)
        return (
            f"ok: evacuated {len(report.migrated)} task(s), "
            f"parked {len(report.parked)}"
        )

    def _cpu_online(self, ev: FaultEvent) -> str:
        core = self.kernel.core
        assert ev.cpu is not None
        if not 0 <= ev.cpu < self.kernel.machine.n_cpus:
            return f"skipped: no such cpu {ev.cpu}"
        if core.cpu_online[ev.cpu]:
            return "skipped: already online"
        woken = self.kernel.online_cpu(ev.cpu)
        return f"ok: unparked {woken} task(s)"

    def _rank_crash(self, ev: FaultEvent) -> str:
        if self.app is None:
            return "skipped: no application attached"
        assert ev.rank is not None
        if ev.rank >= self.app.nprocs:
            return f"skipped: no rank {ev.rank}"
        if ev.rank >= len(self.app.ranks):
            return f"skipped: rank {ev.rank} not yet spawned"
        if self.app.crash_rank(ev.rank):
            return "ok"
        return f"skipped: rank {ev.rank} already dead or job finished"

    def _runaway(self, ev: FaultEvent) -> str:
        self._spawned += 1
        task = self.kernel.spawn(
            f"runaway{self._spawned}",
            policy=ev.policy,
            rt_priority=ev.rt_priority,
            work=ev.duration,
            on_segment_end=lambda: None,
            is_kernel_thread=True,
        )
        task.on_segment_end = lambda t=task: self.kernel.exit(t)
        return f"ok: pid {task.pid}"

    def _noise_burst(self, ev: FaultEvent) -> str:
        pids = []
        for _ in range(ev.count):
            self._spawned += 1
            task = self.kernel.spawn(
                f"burst{self._spawned}",
                policy=ev.policy,
                work=ev.work,
                on_segment_end=lambda: None,
            )
            task.on_segment_end = lambda t=task: self.kernel.exit(t)
            pids.append(task.pid)
        return f"ok: pids {pids[0]}..{pids[-1]}"

    # ----------------------------------------------------- cluster-scoped

    def _node_crash(self, ev: FaultEvent) -> str:
        if self.cluster is None:
            return "skipped: no cluster coordinator"
        target = ev.node if ev.node is not None else self.node_index
        return self.cluster.inject_node_crash(target)

    def _node_slowdown(self, ev: FaultEvent) -> str:
        target = ev.node if ev.node is not None else self.node_index
        if self.cluster is not None:
            return self.cluster.inject_node_slowdown(
                target, ev.factor, ev.duration
            )
        if target != self.node_index:
            return f"skipped: no cluster coordinator for node {target}"
        # Single-node: scale this kernel directly for the window.
        kernel = self.kernel
        kernel.set_speed_scale(ev.factor)
        kernel.sim.after(
            max(1, ev.duration),
            lambda: kernel.set_speed_scale(1.0),
            priority=3,
            label="fault:node_slowdown:restore",
        )
        return f"ok: rate x{ev.factor} for {ev.duration}us"

    def _link_degrade(self, ev: FaultEvent) -> str:
        if self.cluster is None:
            return "skipped: no cluster coordinator"
        node = ev.node if ev.node is not None else None
        return self.cluster.inject_link_degrade(
            node, ev.peer, ev.latency, ev.duration
        )

    # ------------------------------------------------------------- reports

    def faults_injected(self) -> int:
        return sum(1 for a in self.applied if not a.skipped)
