"""Tests for the report generator and the run queue."""

import pytest

from repro.experiments.report import (
    PAPER_TABLE1A,
    PAPER_TABLE1B,
    PAPER_TABLE2,
    generate_report,
)
from repro.kernel.cfs import CfsClass
from repro.kernel.idle import IdleClass
from repro.kernel.rt import RtClass
from repro.kernel.runqueue import CpuRunqueue
from repro.kernel.task import SchedPolicy, Task, TaskState


# ------------------------------------------------------------------- report


def test_paper_constants_cover_all_benches():
    for table in (PAPER_TABLE1A, PAPER_TABLE1B, PAPER_TABLE2):
        assert len(table) == 12
        assert "ep.A.8" in table


def test_paper_table2_values_match_text():
    # Spot checks against the paper text quoted in DESIGN.md.
    assert PAPER_TABLE2["ep.A.8"][:4] == (8.54, 8.87, 14.59, 70.84)
    assert PAPER_TABLE2["cg.A.8"][3] == 6608.70


def test_generate_report_structure():
    report = generate_report(3, 1, benches=(("is", "A"),))
    assert "# EXPERIMENTS" in report
    assert "## Figure 2" in report
    assert "## Table II" in report
    assert "is.A.8" in report
    assert "Known deviations" in report


# ----------------------------------------------------------------- runqueue


def make_rq():
    classes = [RtClass(), CfsClass(), IdleClass()]
    return CpuRunqueue(0, classes), classes


def test_class_of_routes_policies():
    rq, (rt, fair, idle) = make_rq()
    assert rq.class_of(Task(1, "n")) is fair
    assert rq.class_of(Task(2, "r", SchedPolicy.FIFO, rt_priority=1)) is rt
    assert rq.class_of(Task(3, "i", SchedPolicy.IDLE)) is idle


def test_class_of_unknown_policy_raises():
    rq, _ = make_rq()
    hpc = Task(4, "h", SchedPolicy.HPC)
    with pytest.raises(ValueError):
        rq.class_of(hpc)  # no HPC class on a stock run queue


def test_class_rank_ordering():
    rq, (rt, fair, idle) = make_rq()
    assert rq.class_rank(rt) < rq.class_rank(fair) < rq.class_rank(idle)


def test_nr_runnable_counts_running_and_queued():
    rq, (rt, fair, idle) = make_rq()
    a = Task(1, "a")
    a.state = TaskState.RUNNABLE
    fair.enqueue(rq.queues["fair"], a, wakeup=False)
    assert rq.nr_runnable() == 1
    assert rq.nr_runnable("fair") == 1
    b = Task(2, "b")
    b.state = TaskState.RUNNING
    rq.curr = b
    assert rq.nr_runnable() == 2
    assert rq.nr_queued() == 1


def test_idle_task_never_counts_as_load():
    rq, (rt, fair, idle_cls) = make_rq()
    idle_task = Task(9, "swapper", SchedPolicy.IDLE)
    rq.queues["idle"].set_idle_task(idle_task)
    assert rq.nr_runnable() == 0
    assert rq.nr_queued() == 0
    rq.curr = idle_task
    assert rq.nr_runnable() == 0
    assert rq.is_idle()
