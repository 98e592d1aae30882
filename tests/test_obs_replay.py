"""Trace replay: exported traces parse back into the exact event sequence,
and replayed traces render deterministic Gantt SVGs.

The golden-trace tests pin a committed export of the canonical is/A/stock
run (and the Gantt rendered from it) byte-for-byte, the same pattern as the
golden provenance fixtures:

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_obs_replay.py
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_nas_job
from repro.obs import (
    gantt_svg,
    load_trace,
    observe,
    replay_chrome,
    replay_ftrace,
    trace_to_chrome,
    trace_to_ftrace,
    write_gantt_svg,
)
from repro.sim.trace import SchedTrace, TraceKind

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _rank_pids(job):
    return [t.pid for t in job.app.rank_tasks()]


@pytest.fixture(scope="module")
def hpl_run():
    return run_nas_job("is", "A", "hpl", seed=3, instrument=observe)


def _event_tuples(trace: SchedTrace):
    return [
        (e.time, e.kind, e.cpu, e.pid, e.prev_pid, e.prev_cpu, e.label)
        for e in trace.iter_all()
    ]


# ------------------------------------------------------------- round trips


def test_chrome_round_trip_on_seeded_run(hpl_run):
    """An unfiltered Chrome export replays into the identical sequence."""
    trace = hpl_run.kernel.observer.trace
    doc = trace_to_chrome(
        trace, names=hpl_run.kernel.observer.names(), end_time=hpl_run.kernel.sim.now
    )
    # JSON round-trip too: what a file on disk would hold.
    replayed = replay_chrome(json.loads(json.dumps(doc)))
    assert _event_tuples(replayed.trace) == _event_tuples(trace)
    assert replayed.source == "chrome"
    assert replayed.end_time == hpl_run.kernel.sim.now
    # Rank names survive via the "name/pid" slice labels.
    for pid in _rank_pids(hpl_run):
        assert replayed.names.get(pid) == hpl_run.kernel.observer.names()[pid]


def test_ftrace_round_trip_on_seeded_run(hpl_run):
    trace = hpl_run.kernel.observer.trace
    text = trace_to_ftrace(trace, names=hpl_run.kernel.observer.names())
    replayed = replay_ftrace(text)
    assert _event_tuples(replayed.trace) == _event_tuples(trace)
    assert replayed.source == "ftrace"
    for pid in _rank_pids(hpl_run):
        assert replayed.names.get(pid) == hpl_run.kernel.observer.names()[pid]


def test_idle_filtered_chrome_export_is_documented_lossy(hpl_run):
    """Idle-filtered exports replay minus the idle occupancy switches."""
    trace = hpl_run.kernel.observer.trace
    idle = hpl_run.kernel.observer.idle_pids()
    doc = trace_to_chrome(trace, names=hpl_run.kernel.observer.names(), idle_pids=idle)
    replayed = replay_chrome(doc)
    switches = replayed.trace.events(kind=TraceKind.SWITCH)
    assert switches, "filtered export still holds the task switches"
    assert not any(e.pid in idle for e in switches)
    assert len(replayed.trace) < len(trace)


def test_load_trace_sniffs_both_formats(hpl_run, tmp_path):
    trace = hpl_run.kernel.observer.trace
    chrome = tmp_path / "t.json"
    chrome.write_text(json.dumps(trace_to_chrome(trace, names=hpl_run.kernel.observer.names())))
    ftrace = tmp_path / "t.txt"
    ftrace.write_text(trace_to_ftrace(trace, names=hpl_run.kernel.observer.names()))
    rc = load_trace(str(chrome))
    rf = load_trace(str(ftrace))
    assert rc.source == "chrome" and rf.source == "ftrace"
    assert _event_tuples(rc.trace) == _event_tuples(rf.trace)
    with pytest.raises(ValueError):
        load_trace(str(chrome), fmt="nonsense")
    chrome.write_text("{ definitely not json")
    with pytest.raises(ValueError):
        load_trace(str(chrome), fmt="chrome")


def test_foreign_chrome_trace_without_seq_still_loads():
    """Events missing our ``seq`` args fall back to timestamp order."""
    doc = {
        "traceEvents": [
            {"name": "b/7", "cat": "sched", "ph": "X", "ts": 20, "dur": 5,
             "pid": 1, "tid": 0, "args": {"task": 7}},
            {"name": "a/3", "cat": "sched", "ph": "X", "ts": 10, "dur": 5,
             "pid": 1, "tid": 0, "args": {"task": 3}},
        ]
    }
    replayed = replay_chrome(doc)
    got = replayed.trace.events(kind=TraceKind.SWITCH)
    assert [e.pid for e in got] == [3, 7]
    assert all(e.prev_pid == -1 for e in got)  # synthesised
    assert replayed.names == {3: "a", 7: "b"}


# ---------------------------------------------------------- property tests

_pids = st.integers(min_value=0, max_value=40)
_cpus = st.integers(min_value=0, max_value=7)
_labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_:", min_size=1, max_size=12
)

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("switch"), _cpus, _pids, _pids),
        st.tuples(st.just("wakeup"), _cpus, _pids),
        st.tuples(st.just("migrate"), _pids, _cpus, _cpus),
        st.tuples(st.just("mark"), _labels),
    ),
    min_size=1,
    max_size=30,
)
_gaps = st.lists(st.integers(min_value=0, max_value=50), min_size=30, max_size=30)


def _build(steps, gaps) -> SchedTrace:
    trace = SchedTrace(max(len(steps), 1))
    t = 0
    for step, gap in zip(steps, gaps):
        t += gap
        if step[0] == "switch":
            _, cpu, prev_pid, next_pid = step
            trace.switch(t, cpu, prev_pid, next_pid)
        elif step[0] == "wakeup":
            _, cpu, pid = step
            trace.wakeup(t, cpu, pid)
        elif step[0] == "migrate":
            _, pid, src, dst = step
            trace.migrate(t, pid, src, dst)
        else:
            trace.mark(t, step[1])
    return trace


@settings(max_examples=60, deadline=None)
@given(steps=_steps, gaps=_gaps)
def test_chrome_round_trip_property(steps, gaps):
    trace = _build(steps, gaps)
    last = max(e.time for e in trace.iter_all())
    doc = trace_to_chrome(trace, end_time=last + 1)
    replayed = replay_chrome(json.loads(json.dumps(doc)))
    assert _event_tuples(replayed.trace) == _event_tuples(trace)


@settings(max_examples=60, deadline=None)
@given(steps=_steps, gaps=_gaps)
def test_ftrace_round_trip_property(steps, gaps):
    trace = _build(steps, gaps)
    replayed = replay_ftrace(trace_to_ftrace(trace))
    assert _event_tuples(replayed.trace) == _event_tuples(trace)


# ----------------------------------------------------------------- gantt


def _toy_replayed():
    trace = SchedTrace(16)
    trace.switch(0, 0, -1, 1)
    trace.switch(40, 0, 1, 2)
    trace.wakeup(45, 1, 3)
    trace.switch(50, 1, -1, 3)
    trace.migrate(60, 3, 1, 0)
    trace.mark(70, "barrier")
    text = trace_to_ftrace(trace, names={1: "rank0", 2: "rank1", 3: "rank2"})
    return replay_ftrace(text)


def test_gantt_svg_is_deterministic_and_valid_xml():
    a = gantt_svg(_toy_replayed())
    b = gantt_svg(_toy_replayed())
    assert a == b
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")
    assert "rank0" in a and "cpu 0" in a and "cpu 1" in a
    assert "barrier" in a  # few marks -> labelled


def test_gantt_svg_requires_switch_events():
    trace = SchedTrace(4)
    trace.wakeup(10, 0, 1)
    replayed = replay_ftrace(trace_to_ftrace(trace))
    with pytest.raises(ValueError):
        gantt_svg(replayed)


def test_write_gantt_svg_and_options(tmp_path):
    path = tmp_path / "g.svg"
    write_gantt_svg(_toy_replayed(), str(path), width=640, title="toy")
    text = path.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert ">toy<" in text
    ET.fromstring(text)


# ------------------------------------------------------------ golden trace


def test_golden_trace_and_gantt(tmp_path):
    """A committed export of is/A/stock replays + renders byte-identically.

    This is the fixture ``hpl-repro replay`` demos against, and what the CI
    determinism gate diffs across worker counts.
    """
    run = run_nas_job("is", "A", "stock", seed=3, instrument=observe)
    doc = trace_to_chrome(
        run.kernel.observer.trace,
        names=run.kernel.observer.names(),
        idle_pids=run.kernel.observer.idle_pids(),
        end_time=run.kernel.sim.now,
    )
    trace_bytes = (json.dumps(doc, indent=1) + "\n").encode()

    trace_path = GOLDEN_DIR / "trace_is_a_stock.json"
    if REGEN:
        trace_path.write_bytes(trace_bytes)
    assert trace_path.exists(), "golden trace missing; regen with REPRO_REGEN_GOLDEN=1"
    assert trace_bytes == trace_path.read_bytes()

    svg_bytes = gantt_svg(
        load_trace(str(trace_path)), title="is.A stock (seed 3)"
    ).encode()
    svg_path = GOLDEN_DIR / "gantt_is_a_stock.svg"
    if REGEN:
        svg_path.write_bytes(svg_bytes)
    assert svg_path.exists(), "golden gantt missing; regen with REPRO_REGEN_GOLDEN=1"
    assert svg_bytes == svg_path.read_bytes()
