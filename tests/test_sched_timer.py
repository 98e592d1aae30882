"""The lean CPU-timer path, piece by piece.

* A segment handler's own re-arms are deferred to the single re-arm after
  it, keyed on the run queue *and* the task, and the marker is cleared
  even when the handler raises.
* A re-arm that reproduces the pending timer keeps the event only while it
  is the queue's newest entry; the pop order is always the one that
  cancel-and-re-arm gives.
* Spin-then-block timeouts are cancelled at their collective's release,
  while a rank that waits past its spin budget still blocks.

``tests/test_sched_timer_oracle.py`` checks the whole path against the old
one on full runs.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mpi import MpiApplication
from repro.experiments.runner import run_nas_job
from repro.kernel.task import TaskState
from repro.sim.events import EventQueue
from repro.topology.presets import generic_smp
from repro.units import secs

from tests.oracles import sched_timer
from tests.test_sched_core import fast_kernel


def _timers(kernel, cpu: int, *, live_only: bool = True) -> List[object]:
    """CPU-timer entries of *cpu* stored in the event queue: the live ones,
    or with *live_only* off also the lazily cancelled ones."""
    prefix = f"cpu{cpu}:"
    return [
        entry[3]
        for entry in kernel.sim.queue._pending_entries()
        if entry[3].label.startswith(prefix)
        and not (live_only and entry[3].cancelled)
    ]


# ------------------------------------------------------ handler deferral


def test_resegmenting_handler_leaves_one_live_timer():
    kernel = fast_kernel(generic_smp(1))
    task = kernel.spawn("w", work=1_000, on_segment_end=lambda: None)
    seen = []
    stored = []

    def handler() -> None:
        seen.append((kernel.core.handler_task, kernel.core.handler_rq))
        stored.append(len(_timers(kernel, 0, live_only=False)))
        # Several re-segments and a same-CPU wakeup: each would have armed
        # (and the next cancelled) a timer of its own.
        kernel.set_segment(task, 300, lambda: None)
        kernel.set_segment(task, 500, lambda: None)
        kernel.sched_yield(task)
        kernel.set_segment(task, 700, finish)
        kernel.sim.stop()

    def finish() -> None:
        kernel.exit(task)

    task.on_segment_end = handler
    kernel.sim.run_until(secs(1))
    assert seen == [(task, kernel.core.rqs[0])]
    assert kernel.core.handler_task is None and kernel.core.handler_rq is None
    timers = _timers(kernel, 0)
    assert len(timers) == 1
    # The handler's own arms were never scheduled: one entry was added.
    assert len(_timers(kernel, 0, live_only=False)) == stored[0] + 1
    assert kernel.core.rqs[0].timer_event is timers[0]
    assert timers[0].time == 1_000 + 700
    kernel.sim.run_until(secs(1))
    assert task.state == TaskState.EXITED
    assert task.exited_at == 1_700


def test_handler_marker_cleared_when_handler_raises():
    kernel = fast_kernel(generic_smp(1))
    task = kernel.spawn("w", work=100, on_segment_end=lambda: None)

    def handler() -> None:
        kernel.set_segment(task, 100, lambda: None)
        raise KeyError("handler bug")

    task.on_segment_end = handler
    with pytest.raises(KeyError):
        kernel.sim.run_until(secs(1))
    assert kernel.core.handler_task is None
    assert kernel.core.handler_rq is None


def test_task_migrated_by_its_handler_is_armed_on_new_cpu():
    kernel = fast_kernel(generic_smp(2))
    task = kernel.spawn("w", work=1_000, on_segment_end=lambda: None)
    done = []
    src = []

    def handler() -> None:
        src.append(task.cpu)
        kernel.set_segment(task, 400, lambda: (done.append(kernel.now), kernel.exit(task)))
        kernel.core.active_migrate_running(task.cpu, 1 - task.cpu)
        kernel.sim.stop()

    task.on_segment_end = handler
    kernel.sim.run_until(secs(1))
    # The deferral is keyed on (run queue, task): on its new CPU the task
    # is armed at once.
    dst = 1 - src[0]
    assert kernel.core.rqs[dst].curr is task
    assert _timers(kernel, dst) == [kernel.core.rqs[dst].timer_event]
    kernel.sim.run_until(secs(1))
    assert done and task.state == TaskState.EXITED
    assert task.last_cpu == dst


# ------------------------------------------------------ newest-entry keep


def test_identical_rearm_keeps_newest_event():
    kernel = fast_kernel(generic_smp(1))
    kernel.spawn("w", work=1_000, on_segment_end=lambda: None)
    kernel.sim.run_until(10)
    rq = kernel.core.rqs[0]
    kernel.core._program(rq)
    event = rq.timer_event
    assert event is not None and kernel.sim.queue.is_newest(event)
    kernel.core._program(rq)
    assert rq.timer_event is event and not event.cancelled
    assert len(_timers(kernel, 0)) == 1


def test_rearm_after_later_schedule_replaces_event_and_fires_last():
    kernel = fast_kernel(generic_smp(1))
    task = kernel.spawn("w", work=1_000, on_segment_end=lambda: None)
    fired = []
    task.on_segment_end = lambda: (fired.append("timer"), kernel.exit(task))
    kernel.sim.run_until(10)
    rq = kernel.core.rqs[0]
    event = rq.timer_event
    # A same-instant, same-priority event scheduled after the timer...
    kernel.sim.at(event.time, lambda: fired.append("other"), priority=5)
    assert not kernel.sim.queue.is_newest(event)
    kernel.core._program(rq)
    # ...makes the re-arm replace the timer, which now sorts after it,
    # exactly as cancel-and-re-arm orders them.
    assert rq.timer_event is not event and event.cancelled
    assert rq.timer_event.time == event.time
    kernel.sim.run_until(secs(1))
    assert fired == ["other", "timer"]


def test_is_newest_tracks_schedules_cancels_and_pops():
    queue = EventQueue()
    nop = lambda: None  # noqa: E731
    a = queue.schedule(5, nop)
    assert queue.is_newest(a)
    b = queue.schedule(3, nop)
    assert queue.is_newest(b) and not queue.is_newest(a)
    b.cancel()
    assert not queue.is_newest(b)
    assert not queue.is_newest(a)  # a cancelled later entry still counts
    assert queue.pop() is a
    assert not queue.is_newest(a)


#: One op: ("schedule", time, priority), ("rearm", victim index) or
#: ("pop",).
queue_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=2),
        ),
        st.tuples(st.just("rearm"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


def _replay(ops, keep_newest: bool) -> List[int]:
    """Drive a queue through *ops*, re-arming either by keeping the newest
    identical event or always by cancel-and-schedule; return pop order."""
    queue = EventQueue()
    handles = []  # index -> current event of that logical timer
    popped: List[int] = []
    for op in ops:
        if op[0] == "schedule":
            index = len(handles)
            handles.append(queue.schedule(op[1], lambda i=index: i, priority=op[2]))
        elif op[0] == "rearm" and handles:
            index = op[1] % len(handles)
            old = handles[index]
            if old.cancelled or old._queue is None:
                continue  # already fired
            if keep_newest and queue.is_newest(old):
                continue
            old.cancel()
            handles[index] = queue.schedule(
                old.time, old.callback, priority=old.priority
            )
        elif op[0] == "pop":
            event = queue.pop()
            if event is not None:
                popped.append(event.callback())
    while True:
        event = queue.pop()
        if event is None:
            return popped
        popped.append(event.callback())


@settings(max_examples=200, deadline=None)
@given(ops=queue_ops)
def test_keep_newest_pops_like_cancel_and_rearm(ops):
    assert _replay(ops, keep_newest=True) == _replay(ops, keep_newest=False)


# ------------------------------------------------------ spin timeouts


@pytest.mark.parametrize("bench", ["is", "mg"])
def test_no_spin_timeout_outlives_its_release(bench):
    checked = [0]

    def instrument(kernel) -> None:
        def before_event(t: int, label: str) -> None:
            for entry in kernel.sim.queue._pending_entries():
                event = entry[3]
                if event.cancelled or not event.label.startswith("spin-to:"):
                    continue
                rank, sync_pos, _ = event.callback.__defaults__
                # Still waiting: a release moves every live rank past its
                # collective, so a live timeout means no release yet.
                assert rank.pos == sync_pos, (t, event.label)
                assert rank.spin_timeout is event
                checked[0] += 1

        kernel.sim.add_trace_hook(before_event)

    run_nas_job(bench, "A", "stock", seed=0, instrument=instrument)
    assert checked[0] > 0


def _count_spin_blocks(bench: str, seed: int) -> int:
    """Ranks a spin timeout put to sleep (running and spinning before the
    timeout, asleep after it)."""
    blocks = [0]
    original = MpiApplication._spin_timeout

    def counting(self, rank, sync_pos, epoch):
        task = rank.task
        spinning = task.state == TaskState.RUNNING and task.spinning
        original(self, rank, sync_pos, epoch)
        if spinning and task.state == TaskState.SLEEPING:
            blocks[0] += 1

    MpiApplication._spin_timeout = counting
    try:
        run_nas_job(bench, "A", "stock", seed=seed)
    finally:
        MpiApplication._spin_timeout = original
    return blocks[0]


@pytest.mark.parametrize("bench,seed", [("is", 2), ("ep", 0), ("mg", 1)])
def test_rank_delayed_past_spin_budget_still_blocks(bench, seed):
    lean = _count_spin_blocks(bench, seed)
    with sched_timer.installed():
        oracle = _count_spin_blocks(bench, seed)
    assert lean == oracle
    assert lean > 0
