"""The metrics registry: instrument semantics, snapshots, sim profiling."""

import json

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    SimProfiler,
    event_type,
    render_sim_profile,
)
from repro.sim.engine import Simulator


# ------------------------------------------------------------- instruments


def test_counter_semantics():
    r = MetricsRegistry()
    c = r.counter("events")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert r.counter("events") is c  # memoized
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labels_distinguish_instruments():
    r = MetricsRegistry()
    a = r.counter("retries", classification="transient")
    b = r.counter("retries", classification="deterministic")
    assert a is not b
    a.inc(2)
    assert b.value == 0
    # Label order does not matter.
    assert r.counter("x", p=1, q=2) is r.counter("x", q=2, p=1)


def test_gauge_tracks_high_water():
    r = MetricsRegistry()
    g = r.gauge("heap_depth")
    g.set(3)
    g.set(10)
    g.set(4)
    g.add(2)
    assert g.value == 6
    assert g.high_water == 10


def test_histogram_buckets_and_stats():
    r = MetricsRegistry()
    h = r.histogram("sizes", bounds=(1, 2, 4))
    for v in (1, 1, 3, 100):
        h.observe(v)
    assert h.count == 4
    assert h.minimum == 1 and h.maximum == 100
    assert h.mean == pytest.approx(105 / 4)
    # bounds are upper-inclusive: <=1, <=2, <=4, overflow
    assert h.buckets == [2, 0, 1, 1]
    with pytest.raises(ValueError):
        r.histogram("bad", bounds=(2, 1))
    with pytest.raises(ValueError):
        r.histogram("empty", bounds=())


# ---------------------------------------------------------------- snapshot


def test_snapshot_is_deterministically_ordered():
    def build() -> MetricsRegistry:
        r = MetricsRegistry()
        # Registration order differs from sorted order.
        r.counter("zeta").inc()
        r.counter("alpha", k="2").inc(2)
        r.counter("alpha", k="1").inc(3)
        r.gauge("g").set(1)
        r.histogram("h", bounds=(1,)).observe(0.5)
        return r

    a, b = build(), build()
    assert a.snapshot() == b.snapshot()
    names = [(c["name"], tuple(sorted(c.get("labels", {}).items())))
             for c in a.snapshot()["counters"]]
    assert names == sorted(names)
    # JSON round-trips without loss.
    assert json.loads(a.to_json()) == a.snapshot()


def test_write_snapshot(tmp_path):
    r = MetricsRegistry()
    r.counter("n").inc(7)
    path = tmp_path / "metrics.json"
    r.write_snapshot(str(path))
    doc = json.loads(path.read_text())
    assert doc["counters"][0] == {"name": "n", "value": 7}


# -------------------------------------------------------------- event_type


@pytest.mark.parametrize(
    "label,expected",
    [
        ("tick:cpu3", "tick:cpu"),
        ("cpu12:timer", "cpu:timer"),
        ("balance:cpu0", "balance:cpu"),
        ("iter5", "iter"),
        ("daemon:kworker/3", "daemon:kworker/"),
        ("", "<unlabelled>"),
        ("42", "<unlabelled>"),
    ],
)
def test_event_type_strips_instance_digits(label, expected):
    assert event_type(label) == expected


# ------------------------------------------------------------- SimProfiler


def _cascade_sim() -> Simulator:
    """A tiny deterministic event pattern: a 3-event cascade at t=10, one
    event at t=20, and a 2-event cascade at t=30."""
    sim = Simulator(seed=0)
    for label in ("tick:cpu0", "tick:cpu1", "io:rank2"):
        sim.at(10, lambda: None, label=label)
    sim.at(20, lambda: None, label="tick:cpu0")
    sim.at(30, lambda: None, label="sync:app")
    sim.at(30, lambda: None, label="sync:app")
    return sim


def test_sim_profiler_counts_events_and_cascades():
    sim = _cascade_sim()
    profiler = SimProfiler(sim)
    sim.run_until(100)
    snap = profiler.finalize()
    events = [c for c in snap["counters"] if c["name"] == "sim.events"]
    assert events and events[0]["value"] == 6
    by_type = profiler.events_by_type
    assert by_type["tick:cpu"] == 3
    assert by_type["io:rank"] == 1
    assert by_type["sync:app"] == 2
    cascades = profiler.cascade_histogram
    # Three same-instant groups: sizes 3, 1, 2.
    assert cascades.count == 3
    assert cascades.maximum == 3
    assert cascades.total == 6


def test_sim_profiler_heap_high_water():
    sim = _cascade_sim()
    profiler = SimProfiler(sim)
    sim.run_until(100)
    profiler.finalize()
    # All 6 events were queued before the first fired; the heap then only
    # drains, so the high water is sampled at (just under) full depth.
    assert 5 <= profiler.heap_high_water <= 6


def test_sim_profiler_finalize_is_idempotent():
    sim = _cascade_sim()
    profiler = SimProfiler(sim)
    sim.run_until(100)
    first = profiler.finalize()
    second = profiler.finalize()
    assert first == second
    assert profiler.cascade_histogram.count == 3  # open cascade flushed once


def test_sim_profiler_does_not_perturb_the_run():
    bare = Simulator(seed=0)
    fired = []
    bare.at(5, lambda: fired.append(bare.now), label="a1")
    bare.at(5, lambda: fired.append(bare.now), label="a2")
    bare.run_until(10)

    profiled = Simulator(seed=0)
    fired2 = []
    profiled.at(5, lambda: fired2.append(profiled.now), label="a1")
    profiled.at(5, lambda: fired2.append(profiled.now), label="a2")
    SimProfiler(profiled)
    profiled.run_until(10)
    assert fired == fired2
    assert bare.events_processed == profiled.events_processed


def test_sim_profiler_type_overflow_folds_to_other():
    sim = Simulator(seed=0)
    for i, kind in enumerate(("alpha", "beta", "gamma", "delta", "eps")):
        sim.at(1 + i, lambda: None, label=f"{kind}:x{i}")
    profiler = SimProfiler(sim, max_types=2)
    sim.run_until(100)
    profiler.finalize()
    by_type = profiler.events_by_type
    assert sum(by_type.values()) == 5
    assert by_type.get("<other>", 0) >= 3


def test_render_sim_profile_mentions_the_headline_numbers():
    sim = _cascade_sim()
    profiler = SimProfiler(sim)
    sim.run_until(100)
    profiler.finalize()
    text = render_sim_profile(profiler)
    assert "events processed" in text
    assert "tick:cpu" in text
    assert "cascade" in text


def test_sim_profiler_registry_is_shareable():
    registry = MetricsRegistry()
    sim = _cascade_sim()
    profiler = SimProfiler(sim, registry=registry)
    sim.run_until(100)
    profiler.finalize()
    snap = registry.snapshot()
    counter_names = {c["name"] for c in snap["counters"]}
    assert "sim.events" in counter_names
    assert any(g["name"] == "sim.heap_depth" for g in snap["gauges"])
