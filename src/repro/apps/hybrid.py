"""Hybrid MPI + OpenMP application model.

§I motivates HPL with the evolution of HPC codes: "Parallel applications
have evolved to use a mix of different programming models, such as MPI,
OpenMP, UPC, Pthreads" — and argues the OS should schedule "all processes
and threads inside an application ... as a single entity".  This module
models the dominant hybrid shape: *n_ranks* MPI processes, each running
*threads_per_rank* OpenMP threads.

Structure per rank and program phase:

* a COMPUTE phase is a **parallel region**: the work splits evenly across
  the rank's threads (log-normal imbalance per thread), ending in a
  fork-join barrier within the rank;
* SYNC and BLOCKIO phases are executed by the rank **leader** only (the
  MPI-THREAD-FUNNELED style); workers meanwhile wait according to
  ``omp_wait``:

  - ``"active"``  (OMP_WAIT_POLICY=active): workers busy-wait — they hold
    their CPUs through the join and the leader's MPI phase, which under HPL
    keeps daemons starved on every CPU the application owns;
  - ``"passive"``: workers sleep at the join — their CPUs go idle, the
    stock balancer gets new-idle windows, daemons run.

Under the HPL kernel every thread is an HPC-class task (inherited from the
leader), so the fork placer's chips → cores → SMT-threads rule applies to
the whole n_ranks × threads_per_rank gang — the "schedule applications, not
processes" thesis, executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.kernel.kernel import Kernel
from repro.kernel.task import Task, TaskState
from repro.apps.spmd import Phase, PhaseKind, Program

__all__ = ["HybridStats", "HybridApplication"]


@dataclass
class HybridStats:
    """Observed behaviour of one hybrid run."""

    started_at: Optional[int] = None
    finished_at: Optional[int] = None
    timer_started_at: Optional[int] = None
    timer_stopped_at: Optional[int] = None
    ranks_exited: int = 0
    parallel_regions: int = 0

    @property
    def app_time(self) -> Optional[int]:
        if self.timer_started_at is None or self.timer_stopped_at is None:
            return None
        return self.timer_stopped_at - self.timer_started_at


class _Rank:
    __slots__ = ("index", "leader", "workers", "pos", "join_left")

    def __init__(self, index: int) -> None:
        self.index = index
        self.leader: Optional[Task] = None
        self.workers: List[Task] = []
        #: Position in the program's phase list.
        self.pos = 0
        #: Threads still inside the current parallel region.
        self.join_left = 0

    @property
    def threads(self) -> List[Task]:
        return [self.leader] + self.workers  # type: ignore[list-item]


class HybridApplication:
    """One hybrid MPI+OpenMP job on one kernel."""

    def __init__(
        self,
        kernel: Kernel,
        program: Program,
        n_ranks: int,
        threads_per_rank: int,
        *,
        omp_wait: str = "active",
        thread_imbalance_sigma: float = 0.01,
        rng_label: str = "hybrid",
        on_complete: Optional[Callable[["HybridApplication"], None]] = None,
    ) -> None:
        if n_ranks < 1 or threads_per_rank < 1:
            raise ValueError("need at least one rank and one thread")
        if omp_wait not in ("active", "passive"):
            raise ValueError("omp_wait must be 'active' or 'passive'")
        if program.phases[0].kind != PhaseKind.COMPUTE:
            raise ValueError("hybrid programs must start with a compute phase")
        self.kernel = kernel
        self.program = program
        self.n_ranks = n_ranks
        self.threads_per_rank = threads_per_rank
        self.omp_wait = omp_wait
        self.thread_imbalance_sigma = thread_imbalance_sigma
        self.rng_label = rng_label
        self.on_complete = on_complete
        self.stats = HybridStats()
        self.ranks: List[_Rank] = []
        self._arrivals: Dict[int, Set[int]] = {}

    # -------------------------------------------------------------- launch

    def launch(self, parent: Optional[Task] = None, *, policy: Optional[str] = None,
               rt_priority: int = 0) -> None:
        """Fork every rank's thread gang and start the first parallel
        region."""
        if self.ranks:
            raise RuntimeError("application already launched")
        self.stats.started_at = self.kernel.now
        first = self.program.phases[0]
        kwargs = {}
        if policy is not None:
            kwargs["policy"] = policy
            kwargs["rt_priority"] = rt_priority
        for r in range(self.n_ranks):
            rank = _Rank(r)
            rank.join_left = self.threads_per_rank
            for t in range(self.threads_per_rank):
                is_leader = t == 0
                task = self.kernel.spawn(
                    f"{self.program.name}.r{r}t{t}",
                    parent=parent if is_leader else rank.leader,
                    work=self._chunk(first, r, t),
                    on_segment_end=lambda: None,
                    **kwargs,
                )
                task.on_segment_end = self._make_thread_done(rank, task)
                if is_leader:
                    rank.leader = task
                else:
                    rank.workers.append(task)
            self.ranks.append(rank)
            self.stats.parallel_regions += 1

    # ----------------------------------------------------------- internals

    def _chunk(self, phase: Phase, rank_index: int, thread_index: int) -> int:
        base = phase.work / self.threads_per_rank
        if self.thread_imbalance_sigma > 0:
            base *= self.kernel.sim.rng.lognormal(
                f"{self.rng_label}.imbalance", 0.0, self.thread_imbalance_sigma
            )
        if phase.jitter_sigma > 0:
            base *= self.kernel.sim.rng.lognormal(
                f"{self.rng_label}.jitter", 0.0, phase.jitter_sigma
            )
        return max(1, int(base))

    def _make_thread_done(self, rank: _Rank, task: Task) -> Callable[[], None]:
        def thread_done() -> None:
            self._thread_done(rank, task)

        return thread_done

    def _thread_done(self, rank: _Rank, task: Task) -> None:
        """A thread finished its chunk of the current parallel region."""
        rank.join_left -= 1
        if rank.join_left > 0:
            # Wait at the fork-join barrier.
            if self.omp_wait == "active":
                self.kernel.set_spin(task)
            else:
                self.kernel.block(task)
            return
        # Last thread in: the join completes; park it too, then let the
        # leader carry the program forward.
        if task is not rank.leader:
            if self.omp_wait == "active":
                self.kernel.set_spin(task)
            else:
                self.kernel.block(task)
        else:
            self.kernel.set_spin(task)  # momentarily; resumed just below
        self._advance_leader(rank)

    # ------------------------------------------------------- program logic

    def _advance_leader(self, rank: _Rank) -> None:
        rank.pos += 1
        if rank.pos >= len(self.program.phases):
            self._rank_exit(rank)
            return
        phase = self.program.phases[rank.pos]
        leader = rank.leader
        assert leader is not None
        if phase.kind == PhaseKind.COMPUTE:
            self._start_parallel_region(rank, phase)
        elif phase.kind == PhaseKind.SYNC:
            self._leader_segment(
                rank, max(1, phase.arrival_cost),
                lambda r=rank, pos=rank.pos: self._arrive(r, pos),
            )
        elif phase.kind == PhaseKind.BLOCKIO:
            self._leader_segment(
                rank, 5, lambda r=rank, p=phase: self._leader_blockio(r, p)
            )

    def _leader_segment(self, rank: _Rank, work: int, on_end) -> None:
        leader = rank.leader
        assert leader is not None
        self.kernel.set_segment(leader, work, on_end)
        if leader.state == TaskState.SLEEPING:
            self.kernel.wake(leader)

    def _leader_blockio(self, rank: _Rank, phase: Phase) -> None:
        leader = rank.leader
        assert leader is not None
        wait = max(1, int(self.kernel.sim.rng.exponential(
            f"{self.rng_label}.io", phase.wait_mean
        )))
        self.kernel.block(leader)
        self.kernel.sim.after(
            wait, lambda r=rank: self._advance_leader(r), priority=2,
            label=f"hybrid-io:r{rank.index}",
        )

    def _start_parallel_region(self, rank: _Rank, phase: Phase) -> None:
        rank.join_left = self.threads_per_rank
        self.stats.parallel_regions += 1
        for t_index, task in enumerate(rank.threads):
            chunk = self._chunk(phase, rank.index, t_index)
            self.kernel.set_segment(task, chunk, self._make_thread_done(rank, task))
            if task.state == TaskState.SLEEPING:
                self.kernel.wake(task)

    # ---------------------------------------------------------- collectives

    def _arrive(self, rank: _Rank, sync_pos: int) -> None:
        arrived = self._arrivals.setdefault(sync_pos, set())
        arrived.add(rank.index)
        phase = self.program.phases[sync_pos]
        if len(arrived) == self.n_ranks:
            del self._arrivals[sync_pos]
            self.kernel.sim.after(
                max(1, phase.latency),
                lambda pos=sync_pos: self._release(pos),
                priority=2,
                label=f"hybrid-sync:{sync_pos}",
            )
        leader = rank.leader
        assert leader is not None
        if phase.wait_mode == "spin":
            self.kernel.set_spin(leader)
        else:
            self.kernel.block(leader)

    def _release(self, sync_pos: int) -> None:
        phase = self.program.phases[sync_pos]
        now = self.kernel.now
        if phase.timer_start:
            self.stats.timer_started_at = now
        if phase.timer_stop:
            self.stats.timer_stopped_at = now
        for rank in self.ranks:
            if rank.pos == sync_pos:
                self._advance_leader(rank)

    # ------------------------------------------------------------ lifetime

    def _rank_exit(self, rank: _Rank) -> None:
        self.stats.ranks_exited += 1
        for task in rank.threads:
            if task.state == TaskState.RUNNING:
                self.kernel.exit(task)
                self._task_exited()
            elif task.state == TaskState.SLEEPING:
                self.kernel.set_segment(task, 5, lambda t=task: self._exit_now(t))
                self.kernel.wake(task)
            elif task.state == TaskState.RUNNABLE:
                self.kernel.set_segment(task, 5, lambda t=task: self._exit_now(t))

    def _exit_now(self, task: Task) -> None:
        self.kernel.exit(task)
        self._task_exited()

    def _task_exited(self) -> None:
        total = self.n_ranks * self.threads_per_rank
        exited = sum(1 for t in self.all_tasks() if t.state == TaskState.EXITED)
        if exited == total:
            self.stats.finished_at = self.kernel.now
            if self.on_complete is not None:
                self.on_complete(self)

    # -------------------------------------------------------------- reports

    @property
    def done(self) -> bool:
        return self.stats.ranks_exited == self.n_ranks

    def all_tasks(self) -> List[Task]:
        return [t for rank in self.ranks for t in rank.threads]
