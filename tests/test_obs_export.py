"""Trace export round-trips and the SchedTrace query fixes."""

import json

import pytest

from repro.experiments.runner import run_nas_job
from repro.obs import (
    observe,
    trace_to_chrome,
    trace_to_ftrace,
    write_chrome_trace,
    write_ftrace,
)
from repro.sim.trace import SchedTrace, TraceKind


def _rank_pids(job):
    return [t.pid for t in job.app.rank_tasks()]


@pytest.fixture(scope="module")
def hpl_run():
    return run_nas_job("is", "A", "hpl", seed=3, instrument=observe)


def test_chrome_export_round_trips(hpl_run, tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(
        hpl_run.kernel.observer.trace,
        str(path),
        names=hpl_run.kernel.observer.names(),
        idle_pids=hpl_run.kernel.observer.idle_pids(),
        end_time=hpl_run.kernel.sim.now,
    )
    doc = json.load(open(path))
    assert "traceEvents" in doc and doc["traceEvents"]
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "X" in phases and "M" in phases


def test_chrome_export_covers_every_rank(hpl_run):
    doc = trace_to_chrome(
        hpl_run.kernel.observer.trace,
        names=hpl_run.kernel.observer.names(),
        idle_pids=hpl_run.kernel.observer.idle_pids(),
    )
    slice_pids = {
        e["args"]["task"]
        for e in doc["traceEvents"]
        if e["ph"] == "X" and "task" in e.get("args", {})
    }
    for pid in _rank_pids(hpl_run):
        assert pid in slice_pids, f"rank pid {pid} missing from trace"


def test_chrome_export_only_known_pids_and_cpus(hpl_run):
    doc = trace_to_chrome(hpl_run.kernel.observer.trace, names=hpl_run.kernel.observer.names())
    known_pids = set(hpl_run.kernel.observer.names())
    n_cpus = hpl_run.kernel.machine.n_cpus
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            assert e["args"]["task"] in known_pids
            assert 0 <= e["tid"] < n_cpus
            assert e["dur"] >= 0 and e["ts"] >= 0


def test_chrome_slices_do_not_overlap_per_cpu(hpl_run):
    doc = trace_to_chrome(hpl_run.kernel.observer.trace, names=hpl_run.kernel.observer.names())
    by_cpu = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            by_cpu.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    for spans in by_cpu.values():
        spans.sort()
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            assert e0 <= s1, "overlapping occupancy slices on one CPU"


def test_ftrace_export(hpl_run, tmp_path):
    path = tmp_path / "trace.txt"
    write_ftrace(hpl_run.kernel.observer.trace, str(path), names=hpl_run.kernel.observer.names())
    text = path.read_text()
    assert "sched_switch" in text
    assert "sched_wakeup" in text
    # Rank names appear with their comm= labels.
    assert any(hpl_run.kernel.observer.names()[pid] in text for pid in _rank_pids(hpl_run))
    lines = text.splitlines()
    assert len([ln for ln in lines if not ln.startswith("#")]) == len(
        hpl_run.kernel.observer.trace
    )


def test_ftrace_of_synthetic_trace():
    trace = SchedTrace(16)
    trace.switch(10, 0, 1, 2)
    trace.wakeup(20, 1, 3)
    trace.migrate(30, 3, 1, 0)
    trace.mark(40, "barrier")
    text = trace_to_ftrace(trace, names={2: "rank0", 3: "rank1"})
    assert "next_comm=rank0 next_pid=2" in text
    assert "sched_migrate_task: comm=rank1 pid=3 orig_cpu=1 dest_cpu=0" in text
    assert "mark: barrier" in text


def test_events_pid_filter_excludes_unrelated_migrations():
    """MIGRATE rows match on the migrating pid only; SWITCH rows also match
    the displaced task."""
    trace = SchedTrace(16)
    trace.switch(10, 0, 5, 7)      # 5 displaced by 7
    trace.migrate(20, 9, 0, 1)     # pid 9 migrates
    trace.wakeup(30, 0, 5)
    got = trace.events(pid=5)
    assert [e.kind for e in got] == [TraceKind.SWITCH, TraceKind.WAKEUP]
    got9 = trace.events(pid=9)
    assert [e.kind for e in got9] == [TraceKind.MIGRATE]
    # prev_pid's -1 placeholder never aliases.
    assert trace.events(pid=-1) == []


def test_to_dicts_passes_filters():
    trace = SchedTrace(16)
    trace.switch(10, 0, 1, 2)
    trace.wakeup(20, 1, 2)
    rows = trace.to_dicts(kind=TraceKind.WAKEUP)
    assert rows == [
        {
            "time": 20,
            "kind": TraceKind.WAKEUP,
            "cpu": 1,
            "pid": 2,
            "prev_pid": -1,
            "prev_cpu": -1,
            "label": "",
        }
    ]
    assert json.dumps(rows)  # JSON-serialisable as-is
