"""The rank-recovery paths as they were when node and cluster jobs each
had their own copy, kept verbatim but for three marked fixes.

This is the differential-testing oracle for the single detect -> decide ->
roll-back path (:meth:`repro.apps.mpi.MpiApplication.rollback`, ``_fork``,
``_new_rank`` and :meth:`repro.cluster.multinode.ClusterJob._decide`).
Here a node-level restart respawns each rank through ``_respawn``; the
cluster coordinator rolls a node back with ``cluster_rollback``;
``spawn_rank`` and ``adopt_restart`` each build the scheduling template
and set warmth themselves; and each of the two cluster detectors decides
between abort and restart on its own.  The fixes, each marked ``FIX``
below:

1. ``_restart`` moves ``_checkpoint_time`` to the rollback instant, so a
   second failure does not count the work before the first one again;
2. ``_rank_failure`` drains ``_dead_pending``: a node that fail-stopped
   inside a rank failure's detection window is placed by that detection
   instead of being fenced out with ``cluster:detect``;
3. ``_recover`` fails the job when no node is left to roll back.

``_RankState`` is kept in its old shape as well: the old ``spawn_rank``
and ``adopt_restart`` build it from the task they just forked.

``tests/test_recovery_oracle.py`` runs node and cluster jobs with these
methods installed and without, and demands the same results and the same
fired ``(time, label)`` sequence.

:func:`installed` puts the eight methods on the live classes (adding the
two the current code no longer has) for the duration of a ``with`` block;
everything else runs the current code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.apps.mpi import MpiApplication
from repro.cluster.multinode import ClusterJob
from repro.kernel.task import Task
from repro.sim.events import Event

__all__ = ["installed"]


class _RankState:
    __slots__ = ("index", "task", "pos", "spawn_kwargs", "spin_label", "spin_timeout")

    def __init__(self, index: int, task: Task) -> None:
        self.index = index
        self.task = task
        #: Position in the unrolled phase list (the phase being executed).
        self.pos = 0
        #: Scheduling template captured at first spawn so checkpoint/restart
        #: can respawn the rank with identical policy/priority/affinity.
        self.spawn_kwargs: Dict[str, object] = {}
        #: Spin-timeout label, built once (a respawned task keeps the
        #: rank's name).
        self.spin_label = f"spin-to:{task.name}"
        #: The pending spin-then-block timeout, cancelled at release.
        self.spin_timeout: Optional[Event] = None


def spawn_rank(
    self,
    index: int,
    parent: Optional[Task] = None,
    *,
    policy: Optional[str] = None,
    rt_priority: int = 0,
    nice: int = 0,
    pin: bool = False,
    pin_cpus: Optional[List[int]] = None,
) -> Task:
    """Fork rank *index* (ranks must be spawned in order).

    ``pin`` binds rank *i* to CPU *i* (the §IV default binding);
    ``pin_cpus`` gives an explicit rank→CPU map instead (e.g. the
    SMT-0 threads only, for Mann-&-Mittal-style sequestration)."""
    if index != len(self.ranks):
        raise ValueError(f"ranks must spawn in order; expected {len(self.ranks)}")
    if index >= self.nprocs:
        raise ValueError("all ranks already spawned")
    first = self.program.phases[0]
    kwargs = {}
    if policy is not None:
        kwargs["policy"] = policy
        kwargs["rt_priority"] = rt_priority
    if pin_cpus is not None:
        if len(pin_cpus) < self.nprocs:
            raise ValueError("pin_cpus must cover every rank")
        kwargs["affinity"] = frozenset({pin_cpus[index]})
    elif pin:
        kwargs["affinity"] = frozenset({index % self.kernel.machine.n_cpus})
    task = self.kernel.spawn(
        f"{self.program.name}.r{index}",
        parent=parent,
        nice=nice,
        work=self._draw_work(first, index),
        on_segment_end=lambda: None,
        **kwargs,
    )
    rank = _RankState(index, task)
    rank.spawn_kwargs = dict(kwargs, nice=nice)
    task.user_data = rank
    if task.warmth is not None:
        if self.cold_speed is not None:
            task.warmth.cold_speed = self.cold_speed
        task.warmth.rewarm_scale = self.rewarm_scale
    self._segment_done_of.append(lambda r=rank: self._segment_done(r))
    task.on_segment_end = self._segment_done_of[index]
    self.ranks.append(rank)
    # fork is immediately followed by exec'ing the benchmark binary,
    # which gives the stock kernel a second (SD_BALANCE_EXEC) placement.
    self.kernel.sched_exec(task)
    return task


def _restart(self) -> None:
    now = self.kernel.now
    ft = self.fault_tolerance
    self.stats.restarts += 1
    base = self._checkpoint_time
    if base is None:  # pragma: no cover - set at begin_launch
        base = now
    self.stats.lost_work_us += now - base
    self.stats.recovery_time_us += ft.restart_cost
    # Ranks that already exited are rolled back with the rest, so their
    # exits no longer count.
    self.stats.ranks_exited = 0
    self.stats.finished_at = None
    self._teardown_incarnation()
    # FIX 1: work lost to a later failure counts from this rollback.
    self._checkpoint_time = now
    for rank in self.ranks:
        self._respawn(rank)


def _respawn(self, rank: _RankState, restart_cost: Optional[int] = None) -> None:
    """Re-fork one rank at the last checkpoint.

    The new task runs a bootstrap segment of ``restart_cost`` work
    (restoring the checkpoint image) and then resumes the phase list
    right after the checkpointed collective."""
    if restart_cost is None:
        restart_cost = self.fault_tolerance.restart_cost
    task = self.kernel.spawn(
        f"{self.program.name}.r{rank.index}",
        work=max(1, restart_cost),
        on_segment_end=lambda: None,
        **rank.spawn_kwargs,
    )
    rank.task = task
    task.user_data = rank
    if task.warmth is not None:
        if self.cold_speed is not None:
            task.warmth.cold_speed = self.cold_speed
        task.warmth.rewarm_scale = self.rewarm_scale
    rank.pos = self._checkpoint_pos
    task.on_segment_end = lambda r=rank: self._advance(r)
    self.kernel.sched_exec(task)


def cluster_rollback(self, checkpoint_pos: int, restart_cost: int) -> None:
    """Coordinated rollback driven by the cluster coordinator.

    Unlike :meth:`_restart`, the checkpoint position and restore cost
    come from the *cluster-wide* coordinated checkpoint, not this node's
    local policy.  A survivor that already finished its post-collective
    tail is resurrected at the checkpoint like everyone else."""
    self.stats.restarts += 1
    self.stats.ranks_exited = 0
    self.stats.finished_at = None
    self._teardown_incarnation()
    self._checkpoint_pos = checkpoint_pos
    self._checkpoint_time = self.kernel.now
    for rank in self.ranks:
        self._respawn(rank, restart_cost)


def adopt_restart(
    self,
    checkpoint_pos: int,
    restart_cost: int,
    *,
    policy: Optional[str] = None,
    rt_priority: int = 0,
    nice: int = 0,
    pin: bool = False,
    pin_cpus: Optional[List[int]] = None,
) -> None:
    """Spare-node failover: launch this never-started application
    directly into the cluster checkpoint.

    Every rank boots with a ``restart_cost`` restore segment and then
    resumes right after collective *checkpoint_pos* — the spare adopts
    the dead node's shard mid-program."""
    if self.ranks:
        raise RuntimeError("adopt_restart needs a never-launched application")
    now = self.kernel.now
    self.stats.started_at = now
    self._checkpoint_pos = checkpoint_pos
    self._checkpoint_time = now
    for index in range(self.nprocs):
        kwargs: Dict[str, object] = {}
        if policy is not None:
            kwargs["policy"] = policy
            kwargs["rt_priority"] = rt_priority
        if pin_cpus is not None:
            if len(pin_cpus) < self.nprocs:
                raise ValueError("pin_cpus must cover every rank")
            kwargs["affinity"] = frozenset({pin_cpus[index]})
        elif pin:
            kwargs["affinity"] = frozenset({index % self.kernel.machine.n_cpus})
        task = self.kernel.spawn(
            f"{self.program.name}.r{index}",
            nice=nice,
            work=max(1, restart_cost),
            on_segment_end=lambda: None,
            **kwargs,
        )
        rank = _RankState(index, task)
        rank.spawn_kwargs = dict(kwargs, nice=nice)
        task.user_data = rank
        if task.warmth is not None:
            if self.cold_speed is not None:
                task.warmth.cold_speed = self.cold_speed
            task.warmth.rewarm_scale = self.rewarm_scale
        rank.pos = checkpoint_pos
        task.on_segment_end = lambda r=rank: self._advance(r)
        self._segment_done_of.append(lambda r=rank: self._segment_done(r))
        self.ranks.append(rank)
        self.kernel.sched_exec(task)


def _global_detect(self, epoch: int) -> None:
    if epoch != self._epoch or self.failed is not None or self._job_over():
        return
    self._detect_armed = False
    if not self._dead_pending:
        return
    dead = sorted(self._dead_pending)
    self._dead_pending.clear()
    self.detections += 1
    now = self.sim.now
    if self.detection_latency_us is None and self._crash_time is not None:
        self.detection_latency_us = now - self._crash_time
    self._crash_time = None
    tol = self._tol()
    if tol.mode == "abort" or self.restarts >= tol.max_restarts:
        self._fail(f"node(s) {dead} fail-stopped (tolerance: {tol.mode})")
    else:
        self._recover(dead)


def _rank_failure(self, node: int, app: MpiApplication) -> bool:
    """``failure_bridge`` target: the per-node runtime's heartbeat
    expired on a crashed rank.  Returns True when the coordinator owns
    the decision (a cluster tolerance is set); False hands it back to
    the node-local abort path."""
    if self.tolerance is None:
        return False
    if node not in self._active:
        return True  # stale detection from a superseded incarnation
    tol = self.tolerance
    # FIX 2: this detection also places every node still pending as dead.
    dead = sorted(self._dead_pending)
    self._dead_pending.clear()
    self._crash_time = None
    self.detections += 1
    if (
        self.detection_latency_us is None
        and app.stats.detection_latency_us is not None
    ):
        self.detection_latency_us = app.stats.detection_latency_us
    if tol.mode == "abort" or self.restarts >= tol.max_restarts:
        self._fail(f"rank failure on node {node} (tolerance: {tol.mode})")
    else:
        self._recover(dead)  # FIX 2: was self._recover([])
    return True


def _recover(self, dead: List[int]) -> None:
    """Coordinated rollback of every active node to the last cluster
    checkpoint, after placing the lost shard(s): spare-node failover
    when a spare remains (and the policy asks for it), shrink-to-fit
    otherwise."""
    now = self.sim.now
    tol = self._tol()
    self.restarts += 1
    base = self._ckpt_time if self._ckpt_time is not None else now
    self.lost_work_us += max(0, now - base)
    self.recovery_time_us += tol.restart_cost
    self._epoch += 1
    self._sync_arrived.clear()
    self._ckpt_pending = None
    self._detect_armed = False

    prev_width = len(self._active) + len(dead)
    for _ in dead:
        if tol.recover == "failover" and self._idle_spares:
            spare = self._idle_spares.pop(0)
            self._active.add(spare)
            self.failovers += 1
        else:
            self.shrinks += 1
    new_width = len(self._active)
    # FIX 3: losing every node fails the job instead of dividing by zero.
    if new_width == 0:
        self._fail(f"node(s) {dead} fail-stopped and no node is left")
        return
    if new_width < prev_width:
        # Shrink-to-fit: the remaining phases are re-decomposed over
        # fewer nodes, so every survivor's shard grows proportionally.
        self._work_scale *= prev_width / new_width

    self._ckpt_time = now
    for node in sorted(self._active):
        handle = self.nodes[node]
        self._terminal_nodes.discard(node)
        handle.app.work_scale = self._work_scale
        if handle.app.ranks:
            handle.app.cluster_rollback(self._ckpt_pos, tol.restart_cost)
        else:
            handle.app.adopt_restart(
                self._ckpt_pos, tol.restart_cost, **self._launch_kwargs
            )


_ORACLE = {
    (MpiApplication, "spawn_rank"): spawn_rank,
    (MpiApplication, "_restart"): _restart,
    (MpiApplication, "_respawn"): _respawn,
    (MpiApplication, "cluster_rollback"): cluster_rollback,
    (MpiApplication, "adopt_restart"): adopt_restart,
    (ClusterJob, "_global_detect"): _global_detect,
    (ClusterJob, "_rank_failure"): _rank_failure,
    (ClusterJob, "_recover"): _recover,
}


@contextmanager
def installed() -> Iterator[None]:
    """Run the enclosed code with the oracle methods on the live classes."""
    saved = {key: key[0].__dict__.get(key[1]) for key in _ORACLE}
    try:
        for (cls, name), fn in _ORACLE.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in saved.items():
            if fn is None:
                delattr(cls, name)
            else:
                setattr(cls, name, fn)
