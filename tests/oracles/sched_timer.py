"""The CPU-timer and collective paths as they were before the lean event
path, kept verbatim.

This is the differential-testing oracle for the scheduler core's timer
programming (:meth:`repro.kernel.sched_core.SchedCore._program` and
``_on_cpu_timer``) and the MPI collective glue
(:meth:`repro.apps.mpi.MpiApplication._arrive` and ``_release``).  Here
every checkpoint cancels and re-arms the CPU timer, a segment handler's own
re-arms are scheduled (and then cancelled by the re-arm that follows it),
and every spin-then-block timeout stays queued until it fires, usually as a
no-op after its collective was released.  ``tests/test_sched_timer_oracle.py``
runs jobs with these methods installed and without, and demands the same
results, provenance and fired events (spin timeouts aside).

:func:`installed` swaps the four methods onto the live classes for the
duration of a ``with`` block; everything else runs the current code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.apps.mpi import MpiApplication, _RankState
from repro.kernel.runqueue import CpuRunqueue
from repro.kernel.sched_core import _WORK_EPSILON, SchedCore

__all__ = ["installed"]


def _program(self, rq: CpuRunqueue) -> None:
    """Re-arm the CPU's single timer for the earlier of segment
    completion and slice expiry.

    The pending timer is always cancelled and re-armed, even when the
    freshly computed ``(fire time, kind)`` matches it.  Keeping the
    armed event would save two heap operations per no-op checkpoint but
    is **not** semantics-preserving: a kept event retains its original
    heap sequence number, so it would fire *before* any same-timestamp
    same-priority event scheduled since — whereas re-arming gives the
    timer the newest sequence number.  That reordering changes campaign
    provenance (caught by the golden fixtures), so determinism wins."""
    p = rq.curr
    if p is None or p.is_idle:
        event = rq.timer_event
        if event is not None:
            event.cancel()
            rq.timer_event = None
        return
    # Bring accounting up to date so remaining_work/slice_used are fresh
    # relative to `now`.  Callers almost always checkpointed this very
    # instant, so the guard is inlined rather than paying a call to
    # find out (update_curr itself carries the same early exit).
    now = self.sim.now
    if rq.exec_start != now:
        self.update_curr(rq.cpu_id)
    t_fire = 0
    kind = ""
    remaining = p.remaining_work
    if not p.spinning and remaining is not None:
        if remaining <= _WORK_EPSILON:
            pending = p.pending_delay
            t_done = now + (pending if pending > 1 else 1)
        else:
            rate = self._base_rate(rq)
            assert p.warmth is not None
            t_done = (
                now
                + p.pending_delay
                + self.warmth.time_for_work(p.warmth, remaining, rate)
            )
        t_fire = t_done if t_done > now else now + 1
        kind = "complete"
    cls, queue, _ = rq._serving[p.policy]
    slice_us = cls.task_slice(queue, p)
    if slice_us is not None:
        left = slice_us - p.slice_used
        t_slice = now + (left if left > 1 else 1)
        # min() over the two candidates; "complete" wins the tie, as it
        # sorts before "slice" in the historical (time, kind) tuple min.
        if not kind or t_slice < t_fire:
            t_fire = t_slice
            kind = "slice"
    if not kind:
        event = rq.timer_event
        if event is not None:
            event.cancel()
            rq.timer_event = None
        if p.spinning:
            return  # a spinner with no class peers runs untimed
        raise RuntimeError(
            f"runnable {p!r} has neither work nor slice nor spin — the "
            "application layer must give every running task a segment"
        )
    event = rq.timer_event
    if event is not None:
        event.cancel()
    rq.timer_kind = kind
    # Arm with the prebuilt callback/label; scheduling directly on the
    # queue is safe because t_fire > now by construction above (the
    # ``sim.at`` past-guard can never trip).
    callback, label = self._timer_arm[rq.cpu_id][kind]
    rq.timer_event = self.sim.queue.schedule(
        t_fire, callback, priority=5, label=label
    )

def _on_cpu_timer(self, cpu_id: int, kind: str) -> None:
    rq = self.rqs[cpu_id]
    rq.timer_event = None
    p = rq.curr
    if p is None or p.is_idle:
        return  # stale fire after a state change at the same instant
    self.update_curr(cpu_id)
    if (
        kind == "complete"
        and p.remaining_work is not None
        and p.remaining_work <= _WORK_EPSILON
        and p.pending_delay == 0
    ):
        p.remaining_work = 0
        callback = p.on_segment_end
        p.on_segment_end = None
        if callback is None:
            raise RuntimeError(f"{p!r} completed a segment with no handler")
        callback()
        # The handler must have blocked/exited/re-segmented the task.
        if (
            rq.curr is p
            and p.remaining_work == 0
            and not p.spinning
        ):
            raise RuntimeError(
                f"segment handler for {p!r} left it running with no work"
            )
        if rq.curr is p:
            self._program(rq)
        return
    # Slice expiry (or a completion that rounding left marginally short:
    # reprogramming converges because time_for_work >= 1).
    cls, queue, _ = rq._serving[p.policy]
    slice_us = cls.task_slice(queue, p)
    if kind == "slice" and slice_us is not None and p.slice_used >= slice_us:
        self.preempt_curr(rq)
    else:
        self._program(rq)


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
        self.kernel.sim.after(
            phase.spin_threshold,
            lambda r=rank, pos=sync_pos, e=self._epoch: self._spin_timeout(
                r, pos, e
            ),
            priority=4,
            label=f"spin-to:{rank.task.name}",
        )
    else:
        self.kernel.block(rank.task)


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
    ft = self.fault_tolerance
    if ft is not None and ft.mode == "restart":
        self._sync_count += 1
        if ft.checkpoint_every > 0 and self._sync_count % ft.checkpoint_every == 0:
            self._checkpoint_pos = sync_pos
            self._checkpoint_time = now
    for rank in live:
        self._advance(rank)


_ORACLE = {
    (SchedCore, "_program"): _program,
    (SchedCore, "_on_cpu_timer"): _on_cpu_timer,
    (MpiApplication, "_arrive"): _arrive,
    (MpiApplication, "_release"): _release,
}


@contextmanager
def installed() -> Iterator[None]:
    """Run the enclosed code with the oracle methods on the live classes."""
    saved = {key: getattr(*key) for key in _ORACLE}
    try:
        for (cls, name), fn in _ORACLE.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)
