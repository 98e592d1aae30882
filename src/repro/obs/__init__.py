"""Observability: the simulator's ``perf sched`` analog.

The paper's whole methodology is *observation*: ``perf stat`` counters in
§V, per-class accounting in §IV.  This package grows that measurement stack
from "how many events" to "where the time went":

* :mod:`repro.obs.latency` — wakeup-to-run delay, time-on-runqueue and
  preemption-displacement accounting (``perf sched latency``);
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON and
  ftrace-style text serialisation of a :class:`~repro.sim.trace.SchedTrace`
  (``perf sched record`` / ``timehist`` for off-the-shelf viewers);
* :mod:`repro.obs.stat` — ``perf stat``-style rendering of the counter
  fabric, including the per-class and per-task breakdowns;
* :mod:`repro.obs.provenance` — JSONL run records (seed, config digest,
  counters, latency summary) that make campaign trajectories
  reconstructible;
* :mod:`repro.obs.observer` — :class:`KernelObserver`, the one-call attach
  wiring all of the above into a kernel through the first-class hook points
  (no monkey-patching);
* :mod:`repro.obs.metrics` — the labeled counter/gauge/histogram registry
  plus :class:`SimProfiler`, the sim-core self-profiler;
* :mod:`repro.obs.telemetry` — streaming JSONL campaign telemetry
  (queue-wait/wall per run, retries, timeouts, pool health, cache traffic)
  and the ``top``-style summary over a feed;
* :mod:`repro.obs.replay` — the inverse of ``export``: parse Chrome/ftrace
  trace files back into :class:`~repro.sim.trace.SchedTrace` form and
  render per-CPU Gantt SVGs.

Everything here is strictly passive: attaching an observer never consumes
simulation randomness or changes event timing, so observed and unobserved
runs of the same seed are identical.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.latency": (
        "LatencyAccounting", "LatencySummary", "TaskLatency",
    ),
    "repro.obs.export": (
        "trace_to_chrome", "trace_to_ftrace", "write_chrome_trace",
        "write_ftrace",
    ),
    "repro.obs.metrics": (
        "MetricsRegistry", "SimProfiler", "render_sim_profile",
    ),
    "repro.obs.observer": ("KernelObserver", "observe"),
    "repro.obs.replay": (
        "ReplayedTrace", "gantt_svg", "load_trace", "replay_chrome",
        "replay_ftrace", "write_gantt_svg",
    ),
    "repro.obs.telemetry": (
        "CampaignTelemetry", "ProgressLine", "TelemetrySummary",
        "read_telemetry", "render_top", "summarize_telemetry",
    ),
    "repro.obs.provenance": (
        "PROVENANCE_SCHEMA_VERSION", "campaign_record", "config_digest",
        "read_records", "run_record",
    ),
    "repro.obs.stat": ("render_latency_table", "render_stat"),
})
