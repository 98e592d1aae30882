"""Counter-fabric invariants: breakdowns sum to the system-wide truth."""

from functools import partial

import pytest

from repro.experiments.runner import run_nas_job
from repro.obs import observe
from repro.kernel.perf import PerfEvents, policy_class_name
from repro.kernel.task import SchedPolicy


@pytest.fixture(scope="module")
def stock_run():
    return run_nas_job("is", "A", "stock", seed=2,
                       instrument=partial(observe, with_trace=False))


@pytest.fixture(scope="module")
def hpl_run():
    return run_nas_job("is", "A", "hpl", seed=2,
                       instrument=partial(observe, with_trace=False))


def test_policy_class_mapping():
    assert policy_class_name(SchedPolicy.NORMAL) == "fair"
    assert policy_class_name(SchedPolicy.BATCH) == "fair"
    assert policy_class_name(SchedPolicy.FIFO) == "rt"
    assert policy_class_name(SchedPolicy.RR) == "rt"
    assert policy_class_name(SchedPolicy.HPC) == "hpc"
    assert policy_class_name(SchedPolicy.IDLE) == "idle"
    with pytest.raises(ValueError):
        policy_class_name("not-a-policy")


@pytest.mark.parametrize("which", ["stock_run", "hpl_run"])
def test_class_totals_match_system_counters(which, request):
    run = request.getfixturevalue(which)
    perf = run.kernel.perf
    ks = perf.class_snapshot()
    assert ks, "class accounting was enabled but recorded nothing"
    assert perf.context_switches == sum(
        c["context-switches"] for c in ks.values()
    )
    assert perf.cpu_migrations == sum(c["cpu-migrations"] for c in ks.values())


@pytest.mark.parametrize("which", ["stock_run", "hpl_run"])
def test_voluntary_involuntary_match_task_fields(which, request):
    """The perf-side per-class counts agree with the kernel's own per-task
    bookkeeping (nr_voluntary/nr_involuntary_switches)."""
    run = request.getfixturevalue(which)
    perf = run.kernel.perf
    ks = perf.class_snapshot()
    tasks = run.kernel.tasks.values()
    assert sum(c["voluntary-switches"] for c in ks.values()) == sum(
        t.nr_voluntary_switches for t in tasks
    )
    assert sum(c["involuntary-switches"] for c in ks.values()) == sum(
        t.nr_involuntary_switches for t in tasks
    )
    # preempted-by totals == involuntary totals, per class.
    for c in ks.values():
        assert sum(c["preempted-by"].values()) == c["involuntary-switches"]


def test_task_breakdown_consistent_with_class_breakdown(stock_run):
    perf = stock_run.kernel.perf
    ts = perf.task_snapshot()
    ks = perf.class_snapshot()
    assert ts
    for klass in ks:
        per_task = sum(
            t["involuntary-switches"] for t in ts.values() if t["class"] == klass
        )
        assert per_task == ks[klass]["involuntary-switches"]
    # switches-in sums to the system counter minus anonymous (task-less)
    # kernel activity, which is attributed per-class only.
    assert sum(t["switches-in"] for t in ts.values()) <= perf.context_switches


def test_hpl_ranks_never_preempted(hpl_run):
    """The paper's design goal, visible in the counters: the HPC class
    suffers zero involuntary displacements."""
    ks = hpl_run.kernel.perf.class_snapshot()
    assert "hpc" in ks
    assert ks["hpc"]["involuntary-switches"] == 0
    assert ks["hpc"]["preempted-by"] == {}


def test_balance_counters(stock_run, hpl_run):
    stock_perf = stock_run.kernel.perf
    assert stock_perf.balance_attempts > 0
    # Both counters agree with the balancer's own stats dict.
    stats = stock_run.kernel.balancer.stats
    assert stock_perf.balance_attempts == (
        stats["periodic_attempts"] + stats["newidle_attempts"]
    )
    assert stock_perf.balance_pulls == (
        stats["periodic_pulls"] + stats["newidle_pulls"] + stats["rt_active_pulls"]
    )
    # HPL gates balancing while HPC tasks run: attempts yield no fair pulls.
    hstats = hpl_run.kernel.balancer.stats
    assert hpl_run.kernel.perf.balance_pulls == (
        hstats["periodic_pulls"] + hstats["newidle_pulls"] + hstats["rt_active_pulls"]
    )


def test_accounting_is_opt_in_and_idempotent():
    perf = PerfEvents(2)
    assert perf.class_counters is None
    assert perf.task_counters is None
    first = perf.enable_class_accounting()
    assert perf.enable_class_accounting() is first
    perf.record_context_switch(0, class_name="fair")
    assert first["fair"].context_switches == 1


def test_migration_observers_fire():
    perf = PerfEvents(2)
    seen = []
    perf.migration_observers.append(lambda *a: seen.append(a))
    perf.record_migration(123, 7, 0, 1)
    assert seen == [(123, 7, 0, 1)]
    assert perf.cpu_migrations == 1
