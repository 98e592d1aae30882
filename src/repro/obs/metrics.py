"""Labeled metrics registry: counters, gauges, histograms.

The campaign engine, supervisor and result cache (and the sim core itself,
through :class:`SimProfiler`) report what they are doing through this
registry — the instrument layer the telemetry feed (:mod:`repro.obs.telemetry`)
snapshots into JSON/JSONL.

Design constraints, in order:

* **Off costs nothing.**  A campaign without telemetry builds no registry
  at all: the supervisor reports into its local ``_NullTelemetry`` stub and
  the result cache, given ``metrics=None``, keeps no counters, so the
  metrics module allocates *zero* Python objects (guarded by a tracemalloc
  test, the same technique as the observer guard).
* **Results stay bit-identical.**  Instruments never touch simulation
  randomness or event timing.  Attaching them is strictly passive, so runs
  with metrics enabled produce byte-identical results and provenance; only
  the telemetry sidecar files differ.
* **Snapshots are deterministic in structure.**  :meth:`MetricsRegistry.snapshot`
  sorts every key, so two snapshots of equal instrument state serialise to
  equal JSON.

Instruments are memoized by ``(name, labels)``: asking twice for the same
counter returns the same object, so call sites can resolve instruments once
at attach time and keep only ``inc``/``set``/``observe`` on the hot path.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimProfiler",
    "event_type",
    "render_sim_profile",
]

#: Default histogram bucket upper bounds (powers of two, a µs/count scale
#: that suits both cascade sizes and queue depths).  The last bucket is
#: unbounded.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge:
    """A point-in-time value, with its high-water mark tracked for free."""

    __slots__ = ("name", "labels", "value", "high_water")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value, "high_water": self.high_water}


class Histogram:
    """Counts of observations into fixed buckets, plus sum/min/max.

    ``bounds`` are inclusive upper edges; one final unbounded bucket
    catches the tail, so ``sum(buckets) == count`` always.
    """

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "total",
                 "minimum", "maximum")

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        bounds: Tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        if not bounds:
            raise ValueError("histogram bounds must be non-empty")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """A namespace of labeled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    # ------------------------------------------------------------ instruments

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _labels_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter(name, key[1])
        return found

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _labels_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge(name, key[1])
        return found

    def histogram(
        self,
        name: str,
        *,
        bounds: Tuple[float, ...] = DEFAULT_BOUNDS,
        **labels,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(name, key[1], bounds)
        return found

    # -------------------------------------------------------------- snapshot

    @staticmethod
    def _family(instruments: Iterable) -> List[Dict[str, object]]:
        rows = []
        for inst in instruments:
            row: Dict[str, object] = {"name": inst.name}
            if inst.labels:
                row["labels"] = dict(inst.labels)
            row.update(inst.as_dict())
            rows.append(row)
        rows.sort(key=lambda r: (r["name"], sorted(r.get("labels", {}).items())))
        return rows

    def snapshot(self) -> Dict[str, object]:
        """Deterministically ordered dict of every instrument's state."""
        return {
            "counters": self._family(self._counters.values()),
            "gauges": self._family(self._gauges.values()),
            "histograms": self._family(self._histograms.values()),
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def write_snapshot(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=2) + "\n")


# ------------------------------------------------------------- sim profiling


def event_type(label: str) -> str:
    """Normalize an event label into a bounded type key.

    Labels embed instance numbers (``tick:cpu3``, ``iter17``,
    ``balance:cpu0``); stripping digit runs folds them into per-type
    families (``tick:cpu``, ``iter``, ``balance:cpu``) so the per-type
    counters stay low-cardinality whatever the topology size.
    """
    if not label:
        return "<unlabelled>"
    stripped = "".join(ch for ch in label if not ch.isdigit())
    return stripped or "<unlabelled>"


class SimProfiler:
    """Sim-core self-profiling: where the event loop's work goes.

    Attaches through :meth:`Simulator.add_trace_hook` — the hook point the
    run loop already guards with one ``if hooks:`` test — so profiling
    *changes nothing* in the engine: no new branches on the hot path, no
    perturbation of event order, bit-identical results.

    Measures the quantities the ROADMAP's event-structure rewrite needs to
    target:

    * events processed per (normalized) type — what a calendar queue must
      serve;
    * heap depth high-water — the working set a ladder queue would shard;
    * same-instant cascade sizes — the batches a vectorized barrier-release
      step would coalesce (8-rank barrier wakes show up as cascades of 8+);
    * events/sec over the profiled window (wall clock, reported only in
      telemetry sidecars — never in results).

    ``max_types`` bounds the per-type counter cardinality; the overflow
    folds into ``<other>``.
    """

    def __init__(
        self,
        sim,
        registry: Optional[MetricsRegistry] = None,
        *,
        max_types: int = 128,
    ) -> None:
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_types = max_types
        self._by_type: Dict[str, Counter] = {}
        self._events = self.registry.counter("sim.events")
        self._heap_hw = self.registry.gauge("sim.heap_depth")
        self._cascades = self.registry.histogram("sim.cascade_size")
        self._events_per_sec = self.registry.gauge("sim.events_per_sec")
        self._last_time: Optional[int] = None
        self._cascade = 0
        self._started_at: Optional[float] = None
        self._elapsed_s = 0.0
        self._finalized = False
        sim.add_trace_hook(self._on_event)

    # ------------------------------------------------------------------ hook

    def _on_event(self, time: int, label: str) -> None:
        if self._started_at is None:
            import time as _time

            self._started_at = _time.perf_counter()
        self._events.inc()
        key = event_type(label)
        counter = self._by_type.get(key)
        if counter is None:
            if len(self._by_type) >= self.max_types:
                key = "<other>"
                counter = self._by_type.get(key)
            if counter is None:
                counter = self.registry.counter("sim.events_by_type", type=key)
                self._by_type[key] = counter
        counter.inc()
        self._heap_hw.set(self.sim.queue.depth())
        if time == self._last_time:
            self._cascade += 1
        else:
            if self._cascade:
                self._cascades.observe(self._cascade)
            self._cascade = 1
            self._last_time = time

    # -------------------------------------------------------------- finalize

    def finalize(self) -> Dict[str, object]:
        """Flush the open cascade, compute events/sec, return a snapshot.

        Idempotent: a second call returns the same snapshot without
        double-counting."""
        if not self._finalized:
            self._finalized = True
            if self._cascade:
                self._cascades.observe(self._cascade)
                self._cascade = 0
            if self._started_at is not None:
                import time as _time

                self._elapsed_s = _time.perf_counter() - self._started_at
            if self._elapsed_s > 0:
                self._events_per_sec.set(self._events.value / self._elapsed_s)
        return self.registry.snapshot()

    # ------------------------------------------------------------- accessors

    @property
    def events_by_type(self) -> Dict[str, int]:
        return {key: c.value for key, c in sorted(self._by_type.items())}

    @property
    def heap_high_water(self) -> int:
        return int(self._heap_hw.high_water)

    @property
    def cascade_histogram(self) -> Histogram:
        return self._cascades


def render_sim_profile(profiler: SimProfiler, *, top: int = 12) -> str:
    """Human-readable sim-core self-profile (``hpl-repro stat --sim-profile``)."""
    profiler.finalize()
    lines = ["sim-core self-profile:"]
    total = profiler._events.value
    rate = profiler._events_per_sec.value
    lines.append(f"  events processed   : {total}")
    if rate:
        lines.append(f"  events/sec (wall)  : {rate:,.0f}")
    lines.append(f"  heap depth (high)  : {profiler.heap_high_water}")
    hist = profiler.cascade_histogram
    if hist.count:
        lines.append(
            f"  same-instant cascades: {hist.count} "
            f"(mean {hist.mean:.2f}, max {hist.maximum:.0f})"
        )
    by_type = sorted(
        profiler.events_by_type.items(), key=lambda kv: (-kv[1], kv[0])
    )
    lines.append("  events by type:")
    for key, value in by_type[:top]:
        share = 100.0 * value / total if total else 0.0
        lines.append(f"    {key:<24} {value:>10}  {share:5.1f}%")
    extra = len(by_type) - top
    if extra > 0:
        rest = sum(v for _, v in by_type[top:])
        lines.append(f"    ... +{extra} more types       {rest:>10}")
    return "\n".join(lines) + "\n"
