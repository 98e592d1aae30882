"""Tracing-overhead guard: an unobserved kernel pays nothing.

Two layers:

* structural — a freshly built kernel has empty hook lists, no breakdown
  dicts, no migration trace, and un-patched recorder methods (the old
  ``attach_trace`` monkey-patch is gone for good);
* behavioural — tracemalloc sees zero Python allocations from the
  observability modules during a full unobserved run.
"""

import tracemalloc

from repro.experiments.runner import run_nas, run_nas_campaign
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.perf import PerfEvents
from repro.topology.presets import power6_js22

# Imported up-front so module-level allocations (code objects, docstrings)
# pre-date the tracemalloc window below.
import repro.obs.latency as _obs_latency
import repro.obs.export as _obs_export
import repro.obs.metrics as _obs_metrics
import repro.obs.telemetry as _obs_telemetry
import repro.sim.trace as _sim_trace


def test_default_kernel_has_no_observers(monkeypatch):
    # The invariant sanitizer is an explicitly opted-in observer; pin its
    # env switch off so this test describes the true default.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    k = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    assert k.core.switch_hooks == []
    assert k.core.wakeup_hooks == []
    assert k.core.preempt_hooks == []
    assert k.perf.migration_observers == []
    assert k.perf.class_counters is None
    assert k.perf.task_counters is None
    assert k.perf.migration_trace is None
    assert k.observer is None
    assert k.watchdog is None


def test_recorders_are_not_monkey_patched(monkeypatch):
    """attach_trace subscribes through observer lists; the bound recorder
    methods stay the class's own functions."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    k = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    assert k.perf.record_migration.__func__ is PerfEvents.record_migration
    assert (
        k.perf.record_context_switch.__func__
        is PerfEvents.record_context_switch
    )
    from repro.sim.trace import attach_trace

    trace = attach_trace(k)
    # Still no patching afterwards — only list subscriptions.
    assert k.perf.record_migration.__func__ is PerfEvents.record_migration
    assert len(k.core.switch_hooks) == 1
    assert len(k.core.wakeup_hooks) == 1
    assert len(k.perf.migration_observers) == 1
    assert trace.enabled


def test_unobserved_run_allocates_nothing_in_obs_modules():
    obs_files = {
        _obs_latency.__file__,
        _obs_export.__file__,
        _sim_trace.__file__,
    }
    tracemalloc.start()
    try:
        run_nas("is", "A", "stock", seed=4)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    offenders = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename in obs_files and stat.count > 0
    ]
    assert not offenders, f"unobserved run allocated in obs modules: {offenders}"


def test_campaign_without_telemetry_allocates_nothing_in_obs(tmp_path):
    """A campaign with no telemetry sink never touches the metrics or
    telemetry modules: the supervisor's local no-op stub absorbs every
    report, so "telemetry off" costs method calls, not allocations."""
    obs_files = {_obs_metrics.__file__, _obs_telemetry.__file__}
    tracemalloc.start()
    try:
        run_nas_campaign(
            "is", "A", "stock", 2, base_seed=3,
            provenance_path=str(tmp_path / "prov.jsonl"), n_jobs=1,
        )
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    offenders = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename in obs_files and stat.count > 0
    ]
    assert not offenders, f"telemetry-off campaign allocated: {offenders}"
