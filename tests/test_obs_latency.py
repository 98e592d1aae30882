"""Latency-accounting invariants and the stock-vs-HPL separation."""

import pytest

from repro.experiments.runner import run_nas, run_nas_job
from repro.obs import observe


def _rank_pids(job):
    return [t.pid for t in job.app.rank_tasks()]


@pytest.fixture(scope="module")
def stock_run():
    return run_nas_job("ep", "A", "stock", seed=0, instrument=observe)


@pytest.fixture(scope="module")
def hpl_run():
    return run_nas_job("ep", "A", "hpl", seed=0, instrument=observe)


def test_observation_is_passive(stock_run):
    """An observed run reports exactly what an unobserved run reports."""
    bare = run_nas("ep", "A", "stock", seed=0)
    obs = stock_run.result
    assert obs.app_time == bare.app_time
    assert obs.wall_time == bare.wall_time
    assert obs.context_switches == bare.context_switches
    assert obs.cpu_migrations == bare.cpu_migrations
    assert obs.rank_migrations == bare.rank_migrations


def test_latency_invariants(stock_run):
    lat = stock_run.kernel.observer.latency
    wall = stock_run.result.wall_time
    assert lat.tasks, "no latency entries recorded"
    for entry in lat.tasks.values():
        # Delays are non-negative and bounded by the run's wall time.
        assert 0 <= entry.max_wait <= wall
        assert 0 <= entry.max_wakeup_wait <= entry.max_wait
        assert 0 <= entry.max_preempt_wait <= entry.max_wait
        assert entry.total_wait >= entry.max_wait
        assert entry.n_waits >= entry.n_wakeups + entry.n_preemptions
        # Averages never exceed maxima.
        assert entry.avg_wait <= entry.max_wait or entry.n_waits == 0
        # Runtime is bounded by wall time.
        assert 0 <= entry.runtime <= wall


def test_summary_consistent_with_entries(stock_run):
    lat = stock_run.kernel.observer.latency
    s = lat.summary()
    entries = lat.entries()
    assert s.n_tasks == len(entries)
    assert s.n_wakeups == sum(e.n_wakeups for e in entries)
    assert s.n_preemptions == sum(e.n_preemptions for e in entries)
    assert s.max_runqueue_wait == max(e.max_wait for e in entries)
    assert s.total_runqueue_wait == sum(e.total_wait for e in entries)


def test_samples_match_aggregates(stock_run):
    lat = stock_run.kernel.observer.latency
    assert len(lat.wakeup_samples) == sum(e.n_wakeups for e in lat.tasks.values())
    assert len(lat.preempt_samples) == sum(
        e.n_preemptions for e in lat.tasks.values()
    )
    by_pid = {}
    for pid, wait in lat.preempt_samples:
        by_pid[pid] = max(by_pid.get(pid, 0), wait)
    for pid, worst in by_pid.items():
        assert lat.tasks[pid].max_preempt_wait == worst


def test_stock_rank_delay_dwarfs_hpl(stock_run, hpl_run):
    """The acceptance criterion: on the same seed, the stock kernel's worst
    rank scheduling delay is >= 10x the HPL kernel's (HPC ranks spin at
    barriers and are never displaced, so theirs is ~0)."""
    stock_max = stock_run.kernel.observer.latency.max_delay(_rank_pids(stock_run))
    hpl_max = hpl_run.kernel.observer.latency.max_delay(_rank_pids(hpl_run))
    assert stock_max >= 10 * max(hpl_max, 1)
    # Both the specific families behind it:
    hpl_summary = hpl_run.kernel.observer.latency.summary(_rank_pids(hpl_run))
    assert hpl_summary.n_preemptions == 0
    assert hpl_summary.max_preempt_wait == 0
    stock_summary = stock_run.kernel.observer.latency.summary(_rank_pids(stock_run))
    assert stock_summary.n_preemptions > 0


def test_wakeup_histogram_shape(stock_run):
    lat = stock_run.kernel.observer.latency
    hist = lat.wakeup_histogram(_rank_pids(stock_run), n_bins=10)
    assert hist.n_bins == 10
    assert sum(hist.counts) == hist.n


def test_latency_table_renders(stock_run):
    from repro.obs import render_latency_table

    text = render_latency_table(
        stock_run.kernel.observer.latency,
        pids=_rank_pids(stock_run),
        names=stock_run.kernel.observer.names(),
        with_histogram=True,
    )
    assert "Max delay ms" in text
    assert "TOTAL:" in text
    for pid in _rank_pids(stock_run):
        assert f":{pid}" in text
    assert "wakeup-to-run latency" in text


def test_interference_attribution(stock_run):
    lat = stock_run.kernel.observer.latency
    stolen = lat.interference_time(_rank_pids(stock_run))
    assert set(stolen) == set(_rank_pids(stock_run))
    # Daemons steal a bounded, non-negative amount of each rank's home CPU.
    for pid, t in stolen.items():
        assert 0 <= t <= stock_run.result.wall_time


def test_double_attach_rejected(stock_run):
    with pytest.raises(RuntimeError):
        stock_run.kernel.observer.latency.attach(stock_run.kernel)
