"""The MPI runtime model: ranks, collectives, wait modes, app timing.

:class:`MpiApplication` drives *n* rank tasks through a
:class:`~repro.apps.spmd.Program` on a kernel:

* **compute** phases become scheduler segments (with per-rank jitter and the
  per-run condition factor);
* **sync** phases implement collective semantics: the collective completes
  ``latency`` µs after the *last* arrival — the mechanism by which one
  delayed rank stalls the whole application (the paper's Fig. 1);
* early arrivers **spin** in the MPI progress loop by default (they hold
  their CPU; under CFS the loop's ``sched_yield`` makes them preemptable by
  daemons, under the HPC/RT classes it does not — §V's context-switch
  asymmetry between Table Ia and Ib), or **block** if the phase says so;
* **blockio** phases sleep the rank for an exponential service time.

Timing is NAS-style: :attr:`AppStats.app_time` spans the release of the
``timer_start`` collective to the release of the ``timer_stop`` collective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.kernel.kernel import Kernel
from repro.kernel.task import Task, TaskState
from repro.sim.events import Event
from repro.sim.rng import NormalBlock
from repro.apps.spmd import Phase, PhaseKind, Program
from repro.faults.tolerance import FaultTolerance

__all__ = ["AppStats", "MpiApplication"]


@dataclass
class AppStats:
    """Observed behaviour of one application run."""

    started_at: Optional[int] = None
    finished_at: Optional[int] = None
    timer_started_at: Optional[int] = None
    timer_stopped_at: Optional[int] = None
    ranks_exited: int = 0
    #: Resilience accounting (all zero/None on a fault-free run).
    aborted: bool = False
    rank_crashes: int = 0
    restarts: int = 0
    detection_latency_us: Optional[int] = None
    lost_work_us: int = 0
    recovery_time_us: int = 0

    @property
    def app_time(self) -> Optional[int]:
        """The application's own reported (timed-section) duration, µs."""
        if self.timer_started_at is None or self.timer_stopped_at is None:
            return None
        return self.timer_stopped_at - self.timer_started_at

    @property
    def wall_time(self) -> Optional[int]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class _RankState:
    __slots__ = (
        "index", "name", "task", "pos", "spawn_kwargs", "spin_label", "spin_timeout",
    )

    def __init__(self, index: int, name: str, spawn_kwargs: Dict[str, object]) -> None:
        self.index = index
        #: Task name shared by every incarnation of the rank.
        self.name = name
        #: The current incarnation's task, set by ``MpiApplication._fork``.
        self.task: Task
        #: Position in the unrolled phase list (the phase being executed).
        self.pos = 0
        #: Scheduling template captured at first spawn so checkpoint/restart
        #: can respawn the rank with identical policy/priority/affinity.
        self.spawn_kwargs = spawn_kwargs
        #: Spin-timeout label, built once.
        self.spin_label = f"spin-to:{name}"
        #: The pending spin-then-block timeout, cancelled at release.
        self.spin_timeout: Optional[Event] = None


class MpiApplication:
    """One SPMD application instance on one kernel."""

    def __init__(
        self,
        kernel: Kernel,
        program: Program,
        nprocs: int,
        *,
        cold_speed: Optional[float] = None,
        rewarm_scale: float = 1.0,
        rng_label: str = "app",
        on_complete: Optional[Callable[["MpiApplication"], None]] = None,
        fault_tolerance: Optional[FaultTolerance] = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("need at least one rank")
        self.kernel = kernel
        self.program = program
        self.nprocs = nprocs
        self.cold_speed = cold_speed
        self.rewarm_scale = rewarm_scale
        self.rng_label = rng_label
        self._jitter_stream = f"{rng_label}.jitter"
        #: The jitter stream's block of standard normals, opened at the
        #: first jittered phase (see :class:`~repro.sim.rng.NormalBlock`).
        self._jitter: Optional[NormalBlock] = None
        self.on_complete = on_complete
        self.fault_tolerance = fault_tolerance
        self.stats = AppStats()
        self.ranks: List[_RankState] = []
        #: Rank index -> its segment-end handler, built once at spawn and
        #: reused by every compute and arrival segment of every incarnation.
        #: Held here, not on the rank: the kernel reaches ranks through
        #: ``task.user_data``, and a finished run's kernel must not keep the
        #: app alive.
        self._segment_done_of: List[Callable[[], None]] = []
        #: sync phase position -> set of arrived rank indices
        self._arrivals: Dict[int, Set[int]] = {}
        #: Resilience state.  ``_epoch`` increments on every abort/restart so
        #: events scheduled against a dead incarnation become no-ops.
        self._epoch = 0
        self._failed: Set[int] = set()
        self._crash_time: Optional[int] = None
        self._detect_armed = False
        #: Last checkpointed collective (sync phase position); -1 = restart
        #: from the very beginning.
        self._checkpoint_pos = -1
        self._checkpoint_time: Optional[int] = None
        self._sync_count = 0
        #: Cross-node collective hook: called as fn(app, sync_pos) when all
        #: *local* ranks arrived.  Return True to take over the release (the
        #: multi-node coordinator schedules app._release itself once every
        #: node arrived); False/None keeps single-node semantics.
        self.collective_bridge = None
        #: Cross-node failure hook: called as fn(app) when local detection
        #: fires.  Return True to hand the abort/restart decision to the
        #: cluster coordinator; False/None keeps single-node semantics.
        self.failure_bridge = None
        #: Work multiplier for shrink-to-fit re-decomposition (cluster
        #: recovery).  Exactly 1.0 outside degraded mode, where the
        #: `_draw_work` branch applying it is never taken.
        self.work_scale = 1.0
        #: Per-run condition factor applied to all compute work.
        self._run_factor = 1.0
        if program.run_jitter_sigma > 0:
            self._run_factor = self.kernel.sim.rng.lognormal(
                f"{rng_label}.runjitter", 0.0, program.run_jitter_sigma
            )

    # -------------------------------------------------------------- launch

    def launch(
        self,
        parent: Optional[Task] = None,
        *,
        policy: Optional[str] = None,
        rt_priority: int = 0,
        nice: int = 0,
        pin: bool = False,
        pin_cpus: Optional[List[int]] = None,
    ) -> None:
        """Fork all rank tasks at once (children of *parent*).

        Convenience for tests and simple drivers; the launcher chain uses
        :meth:`spawn_rank` with real inter-fork gaps (mpiexec blocks on pipe
        setup between forks, which matters for fork placement).

        ``policy`` overrides inheritance (used by the RT/nice modes); ``pin``
        binds rank *i* to CPU *i* (the §IV static-affinity baseline)."""
        self.begin_launch()
        for i in range(self.nprocs):
            self.spawn_rank(
                i, parent, policy=policy, rt_priority=rt_priority, nice=nice,
                pin=pin, pin_cpus=pin_cpus,
            )

    def begin_launch(self) -> None:
        if self.ranks:
            raise RuntimeError("application already launched")
        first = self.program.phases[0]
        if first.kind != PhaseKind.COMPUTE:
            raise ValueError("programs must start with a compute phase")
        self.stats.started_at = self.kernel.now
        self._checkpoint_time = self.kernel.now

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
        rank = self._new_rank(index, policy, rt_priority, nice, pin, pin_cpus)
        return self._fork(
            rank,
            self._draw_work(self.program.phases[0], index),
            self._segment_done_of[index],
            parent,
        )

    def _new_rank(
        self,
        index: int,
        policy: Optional[str],
        rt_priority: int,
        nice: int,
        pin: bool,
        pin_cpus: Optional[List[int]],
    ) -> _RankState:
        """Register rank *index* with its scheduling template (not yet
        forked)."""
        kwargs: Dict[str, object] = {"nice": nice}
        if policy is not None:
            kwargs["policy"] = policy
            kwargs["rt_priority"] = rt_priority
        if pin_cpus is not None:
            if len(pin_cpus) < self.nprocs:
                raise ValueError("pin_cpus must cover every rank")
            kwargs["affinity"] = frozenset({pin_cpus[index]})
        elif pin:
            kwargs["affinity"] = frozenset({index % self.kernel.machine.n_cpus})
        rank = _RankState(index, f"{self.program.name}.r{index}", kwargs)
        self._segment_done_of.append(partial(self._segment_done, rank))
        self.ranks.append(rank)
        return rank

    def _fork(
        self,
        rank: _RankState,
        work: int,
        on_segment_end: Callable[[], None],
        parent: Optional[Task] = None,
    ) -> Task:
        """Start a new incarnation of *rank*: spawn its task from the
        scheduling template with a first segment of *work*, then exec."""
        task = self.kernel.spawn(
            rank.name,
            parent=parent,
            work=work,
            on_segment_end=on_segment_end,
            **rank.spawn_kwargs,
        )
        rank.task = task
        task.user_data = rank
        if task.warmth is not None:
            if self.cold_speed is not None:
                task.warmth.cold_speed = self.cold_speed
            task.warmth.rewarm_scale = self.rewarm_scale
        # fork is immediately followed by exec'ing the benchmark binary,
        # which gives the stock kernel a second (SD_BALANCE_EXEC) placement.
        self.kernel.sched_exec(task)
        return task

    # ---------------------------------------------------------- progression

    def _draw_work(self, phase: Phase, rank_index: int) -> int:
        work = phase.work * self._run_factor
        if self.work_scale != 1.0:
            work *= self.work_scale
        if phase.jitter_sigma > 0:
            jitter = self._jitter
            if jitter is None:
                jitter = self._jitter = self.kernel.sim.rng.normal_block(
                    self._jitter_stream
                )
            work *= jitter.lognormal(phase.jitter_sigma)
        return max(1, int(work))

    def _segment_done(self, rank: _RankState) -> None:
        """The rank finished the CPU part of its current phase."""
        phase = self.program.phases[rank.pos]
        if phase.kind == PhaseKind.COMPUTE:
            self._advance(rank)
        elif phase.kind == PhaseKind.SYNC:
            # The arrival-processing segment completed: register arrival.
            self._arrive(rank, rank.pos)
        else:  # pragma: no cover - blockio is driven by _advance directly
            raise AssertionError("blockio phases have no compute segment")

    def _advance(self, rank: _RankState) -> None:
        """Move the rank to its next phase.  Called with the rank's task
        RUNNING (from a segment callback) or SLEEPING (from a wake path)."""
        rank.pos += 1
        if rank.pos >= len(self.program.phases):
            self._rank_exit(rank)
            return
        phase = self.program.phases[rank.pos]
        task = rank.task
        if phase.kind == PhaseKind.COMPUTE:
            self.kernel.set_segment(
                task, self._draw_work(phase, rank.index),
                self._segment_done_of[rank.index],
            )
            if task.state == TaskState.SLEEPING:
                self.kernel.wake(task)
        elif phase.kind == PhaseKind.SYNC:
            # Arrival costs a sliver of CPU (pack/progress the collective).
            self.kernel.set_segment(
                task, max(1, phase.arrival_cost), self._segment_done_of[rank.index]
            )
            if task.state == TaskState.SLEEPING:
                self.kernel.wake(task)
        elif phase.kind == PhaseKind.BLOCKIO:
            # Reach the CPU, issue the syscall (a sliver of work), block.
            self.kernel.set_segment(
                task, 5, lambda r=rank, p=phase: self._block_io(r, p)
            )
            if task.state == TaskState.SLEEPING:
                self.kernel.wake(task)

    def _block_io(self, rank: _RankState, phase: Phase) -> None:
        """Called with the rank RUNNING (from the syscall-issue segment):
        sleep for the service time, then advance."""
        task = rank.task
        wait = max(
            1,
            int(
                self.kernel.sim.rng.exponential(
                    f"{self.rng_label}.io", phase.wait_mean
                )
            ),
        )
        self.kernel.block(task)
        self.kernel.sim.after(
            wait,
            lambda r=rank, e=self._epoch: self._io_done(r, e),
            priority=2,
            label=f"io:{task.name}",
        )

    def _io_done(self, rank: _RankState, epoch: int) -> None:
        if epoch != self._epoch or not rank.task.alive:
            return  # rank crashed (or the job restarted) while it slept
        self._advance(rank)

    # ------------------------------------------------------------ sync glue

    def _arrive(self, rank: _RankState, sync_pos: int) -> None:
        arrived = self._arrivals.setdefault(sync_pos, set())
        arrived.add(rank.index)
        phase = self.program.phases[sync_pos]
        if len(arrived) == self.nprocs:
            # Last local arrival: hand off to the cross-node coordinator if
            # one is attached, else release after the collective latency.
            bridged = (
                self.collective_bridge is not None
                and self.collective_bridge(self, sync_pos)
            )
            if not bridged:
                self.kernel.sim.after(
                    max(1, phase.latency),
                    lambda pos=sync_pos, e=self._epoch: self._release(pos, e),
                    priority=2,
                    label=f"sync:{self.program.name}@{sync_pos}",
                )
            # The last arriver waits out the latency like everyone else.
        if phase.wait_mode == "spin":
            self.kernel.set_spin(rank.task)
            # Spin-then-block (the MPI library default): if the collective
            # has not completed within the spin budget, yield the CPU for
            # real.  On a quiet HPL node every rank arrives within the
            # budget and this never fires; on a noisy stock node it fires
            # whenever one rank was delayed — idling CPUs and inviting the
            # balancer in, which is exactly the coupling §III measures.
            rank.spin_timeout = self.kernel.sim.after(
                phase.spin_threshold,
                lambda r=rank, pos=sync_pos, e=self._epoch: self._spin_timeout(
                    r, pos, e
                ),
                priority=4,
                label=rank.spin_label,
            )
        else:
            self.kernel.block(rank.task)

    def _spin_timeout(self, rank: _RankState, sync_pos: int, epoch: int) -> None:
        if epoch != self._epoch or not rank.task.alive:
            return  # stale incarnation
        if sync_pos not in self._arrivals or rank.pos != sync_pos:
            return  # collective already released
        task = rank.task
        if task.state == TaskState.RUNNING and task.spinning:
            self.kernel.block(task)
        # If the spinner was preempted it holds no CPU anyway; leave it
        # queued — it will block on its own next time it spins (not worth
        # modelling another hop).

    def _release(self, sync_pos: int, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch:
            return  # scheduled against an incarnation that aborted/restarted
        if sync_pos not in self._arrivals:
            return
        phase = self.program.phases[sync_pos]
        now = self.kernel.now
        if phase.timer_start:
            self.stats.timer_started_at = now
        if phase.timer_stop:
            self.stats.timer_stopped_at = now
        del self._arrivals[sync_pos]
        # A rank may arrive and then be killed during the collective latency
        # window; the release simply excludes it (the *next* collective then
        # stalls until failure detection fires).
        live = [r for r in self.ranks if r.task.alive]
        for rank in live:
            if rank.pos != sync_pos:  # pragma: no cover - lockstep invariant
                raise AssertionError(
                    f"rank {rank.index} at {rank.pos}, expected {sync_pos}"
                )
            # Past the release its spin timeout could only return early
            # (the rank's pos moves on; a restart bumps the epoch).
            if rank.spin_timeout is not None:
                rank.spin_timeout.cancel()
                rank.spin_timeout = None
        ft = self.fault_tolerance
        if ft is not None and ft.mode == "restart":
            self._sync_count += 1
            if ft.checkpoint_every > 0 and self._sync_count % ft.checkpoint_every == 0:
                self._checkpoint_pos = sync_pos
                self._checkpoint_time = now
        for rank in live:
            self._advance(rank)

    # ----------------------------------------------------------- resilience

    def crash_rank(self, index: int) -> bool:
        """Kill rank *index* mid-run (a node/process failure).

        The kernel tears the task down with no app-side cleanup — exactly
        what a SIGKILL'd MPI process looks like to the runtime.  The other
        ranks only notice when the next collective stalls; the launcher's
        failure detector fires ``detection_timeout`` µs after the crash (the
        mpirun SIGCHLD/heartbeat analog) and then either aborts the job
        (``mode="abort"``, mpirun semantics) or rolls every rank back to the
        last checkpoint (``mode="restart"``).

        Returns ``False`` (no-op) if the rank does not exist yet, is already
        dead, or the job already finished."""
        if index < 0 or index >= len(self.ranks):
            return False
        rank = self.ranks[index]
        if not rank.task.alive or self.done:
            return False
        if self.fault_tolerance is None:
            self.fault_tolerance = FaultTolerance()
        self.stats.rank_crashes += 1
        if self._crash_time is None:
            self._crash_time = self.kernel.now
        self._failed.add(index)
        self.kernel.kill(rank.task)
        self._arm_detection()
        return True

    def _arm_detection(self) -> None:
        if self._detect_armed:
            return
        self._detect_armed = True
        self.kernel.sim.after(
            max(1, self.fault_tolerance.detection_timeout),
            lambda e=self._epoch: self._detect(e),
            priority=3,
            label=f"mpi-detect:{self.program.name}",
        )

    def _detect(self, epoch: int) -> None:
        if epoch != self._epoch or self.done:
            return
        self._detect_armed = False
        if not self._failed:  # pragma: no cover - armed only on a crash
            return
        ft = self.fault_tolerance
        if self.stats.detection_latency_us is None and self._crash_time is not None:
            self.stats.detection_latency_us = self.kernel.now - self._crash_time
        if self.failure_bridge is not None and self.failure_bridge(self):
            return  # the cluster coordinator owns the abort/restart decision
        if ft.gives_up(self.stats.restarts):
            self._abort()
        else:
            self._restart()

    def _teardown_incarnation(self) -> None:
        """Kill every surviving rank and invalidate in-flight events."""
        self._epoch += 1
        self._arrivals.clear()
        self._failed.clear()
        self._crash_time = None
        self._detect_armed = False
        for rank in self.ranks:
            if rank.task.alive:
                self.kernel.kill(rank.task)

    def _abort(self) -> None:
        now = self.kernel.now
        self.stats.aborted = True
        started = self.stats.started_at
        # The whole run is lost, including spans earlier restarts charged.
        self.stats.lost_work_us = now - (now if started is None else started)
        self._teardown_incarnation()
        self.stats.finished_at = now
        self.stats.ranks_exited = self.nprocs
        if self.on_complete is not None:
            self.on_complete(self)

    def _restart(self) -> None:
        """Local restart: charge the work since the last rollback or
        checkpoint, then roll back to this node's own checkpoint."""
        ft = self.fault_tolerance
        base = self._checkpoint_time
        if base is None:  # pragma: no cover - set at begin_launch
            base = self.kernel.now
        self.stats.lost_work_us += self.kernel.now - base
        self.stats.recovery_time_us += ft.restart_cost
        self.rollback(self._checkpoint_pos, ft.restart_cost)

    def rollback(self, checkpoint_pos: int, restart_cost: int) -> None:
        """Coordinated rollback of every rank to collective
        *checkpoint_pos*.

        Used by the local restart and by the cluster coordinator, whose
        checkpoint position and restore cost are cluster-wide.  A rank that
        already finished its post-collective tail is resurrected at the
        checkpoint like everyone else, so its exit no longer counts; work
        lost to a later failure counts from now."""
        self.stats.restarts += 1
        self.stats.ranks_exited = 0
        self.stats.finished_at = None
        self._teardown_incarnation()
        self._resume(checkpoint_pos, restart_cost)

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
        directly into the cluster checkpoint, adopting the dead node's
        shard mid-program."""
        if self.ranks:
            raise RuntimeError("adopt_restart needs a never-launched application")
        self.stats.started_at = self.kernel.now
        for index in range(self.nprocs):
            self._new_rank(index, policy, rt_priority, nice, pin, pin_cpus)
        self._resume(checkpoint_pos, restart_cost)

    def _resume(self, checkpoint_pos: int, restart_cost: int) -> None:
        """Fork every rank at collective *checkpoint_pos*: each boots with
        a ``restart_cost`` restore segment (reloading the checkpoint image)
        and then resumes right after that collective."""
        self._checkpoint_pos = checkpoint_pos
        self._checkpoint_time = self.kernel.now
        for rank in self.ranks:
            rank.pos = checkpoint_pos
            self._fork(rank, max(1, restart_cost), lambda r=rank: self._advance(r))

    # ------------------------------------------------------------- lifetime

    def _rank_exit(self, rank: _RankState) -> None:
        task = rank.task
        if task.state == TaskState.RUNNING:
            self.kernel.exit(task)
            self._account_exit()
        elif task.state == TaskState.SLEEPING:
            # Release reached it inside a blocking wait: wake it for a hair
            # of teardown work, then exit for real.
            self.kernel.set_segment(task, 10, lambda r=rank: self._final_exit(r))
            self.kernel.wake(task)
        elif task.state == TaskState.RUNNABLE:
            # Preempted mid-spin at the final collective: it exits as soon
            # as it gets the CPU back.
            self.kernel.set_segment(task, 10, lambda r=rank: self._final_exit(r))
        else:  # pragma: no cover
            raise AssertionError(f"exit from unexpected state {task.state}")

    def _final_exit(self, rank: _RankState) -> None:
        self.kernel.exit(rank.task)
        self._account_exit()

    def _account_exit(self) -> None:
        self.stats.ranks_exited += 1
        if self.stats.ranks_exited == self.nprocs:
            self.stats.finished_at = self.kernel.now
            if self.on_complete is not None:
                self.on_complete(self)

    # ------------------------------------------------------------- reports

    @property
    def done(self) -> bool:
        return self.stats.ranks_exited == self.nprocs

    def rank_tasks(self) -> List[Task]:
        return [r.task for r in self.ranks]
