"""Pool-mode supervision: hung workers, worker death, degradation, and
the life cycle of the process's one campaign worker pool.

Workers here are module-level functions (optionally bound with
``functools.partial``) because they cross the process boundary by pickling.
Cross-attempt state lives in flag files under a tmp directory — worker
processes share no memory with the test.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

import repro.parallel.supervisor as supervisor
from repro.apps.spmd import Program
from repro.batch import WorkloadConfig, run_batch_campaign
from repro.experiments.runner import (
    build_campaign_specs,
    run_campaign,
    run_cluster_campaign,
)
from repro.parallel import (
    CampaignRunError,
    RetryPolicy,
    SupervisorConfig,
    WorkerPoolError,
    backoff_delay,
    supervise_campaign,
)
from repro.topology.presets import generic_smp
from repro.units import msecs


def _tiny_program() -> Program:
    return Program.iterative(
        name="pool", n_iters=2, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )


def _specs(n_runs: int, base_seed: int = 0):
    return build_campaign_specs(
        _tiny_program, 4, "stock", n_runs,
        base_seed=base_seed, machine_factory=lambda: generic_smp(4),
    )


def _ok(spec):
    return spec.seed * 2, None


def _pid(spec):
    return os.getpid(), None


def _sanitize_flag(spec):
    return os.environ.get("REPRO_SANITIZE"), None


def _fail_first_while_others_run(flag_dir: str, spec):
    """Run 0 fails at once; every other run marks its start and outlasts
    the campaign that aborts over run 0."""
    if spec.run_index == 0:
        raise ValueError("run 0 fails")
    open(os.path.join(flag_dir, f"started-{spec.run_index}"), "w").close()
    time.sleep(0.5)
    return spec.seed, None


def _hang_once(flag_dir: str, spec):
    """Run 1 wedges for 30s on its first attempt only (flag file marks it)."""
    flag = os.path.join(flag_dir, f"hung-{spec.run_index}")
    if spec.run_index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        time.sleep(30)
    return spec.seed, None


def _die_once(flag_dir: str, spec):
    """Run 1 hard-kills its worker process on the first attempt only."""
    flag = os.path.join(flag_dir, f"died-{spec.run_index}")
    if spec.run_index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(1)  # simulates an OOM-killed / segfaulted worker
    return spec.seed, None


def _die_always(spec):
    os._exit(1)


def _exit_soon():
    time.sleep(0.05)
    os._exit(1)


def _die_after_returning_once(flag_dir: str, spec):
    """Run 0 returns normally, then its worker process dies 50 ms later
    (first attempt only) — between results, not under a running future."""
    flag = os.path.join(flag_dir, f"late-{spec.run_index}")
    if spec.run_index == 0 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        threading.Thread(target=_exit_soon, daemon=True).start()
    return spec.seed, None


def _stamp_and_die_once(flag_dir: str, spec):
    """:func:`_die_once`, with each of run 1's attempt starts stamped."""
    if spec.run_index == 1:
        with open(os.path.join(flag_dir, "starts"), "a") as fh:
            fh.write(f"{time.time()!r}\n")
    return _die_once(flag_dir, spec)


def _hang_hard_once(flag_dir: str, spec):
    """Run 1 wedges with SIGALRM blocked on its first attempt only — the
    in-worker alarm cannot fire, so only the supervisor's hard deadline
    (pool kill) can unstick the campaign."""
    flag = os.path.join(flag_dir, f"hard-{spec.run_index}")
    if spec.run_index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(30)
    return spec.seed, None


def _stamp_pid_and_sleep(flag_dir: str, spec):
    """Mark this worker's pid with a flag file, then outsleep the test."""
    open(os.path.join(flag_dir, f"worker-{os.getpid()}"), "w").close()
    time.sleep(60)
    return spec.seed, None


def test_pool_matches_serial_records(tmp_path):
    specs = _specs(6, base_seed=11)
    serial = supervise_campaign(specs, _ok, n_jobs=1)
    pooled = supervise_campaign(specs, _ok, n_jobs=3)
    key = lambda r: (r.run_index, r.seed, r.digest, r.result)
    assert [key(r) for r in serial.records] == [key(r) for r in pooled.records]


def test_hung_worker_is_killed_retried_and_campaign_completes(tmp_path):
    specs = _specs(4, base_seed=4)
    result = supervise_campaign(
        specs, partial(_hang_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(timeout_s=1.0),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    assert result.timeouts == 1
    assert result.retries >= 1
    assert not result.holes


def test_dead_worker_breaks_pool_requeues_and_completes(tmp_path):
    specs = _specs(4, base_seed=7)
    result = supervise_campaign(
        specs, partial(_die_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    assert [r.result for r in result.records] == [s.seed for s in specs]
    assert result.retries >= 1
    assert not result.holes


def test_worker_pool_error_reports_pool_size_and_survivors():
    specs = _specs(3, base_seed=9)
    with pytest.raises(WorkerPoolError) as excinfo:
        supervise_campaign(
            specs, _die_always, n_jobs=2,
            config=SupervisorConfig(retry=RetryPolicy(max_retries=0)),
        )
    err = excinfo.value
    assert err.pool_size == 2
    assert err.survivors is not None
    assert "workers surviving" in str(err)


def test_pool_break_does_not_drop_unsubmitted_runs(tmp_path):
    # Regression: with more runs than the submission window (4 runs per
    # worker, so 8 here), a pool break used to discard the unsubmitted
    # remainder of the queue and terminate with silently truncated records.
    specs = _specs(10, base_seed=13)
    result = supervise_campaign(
        specs, partial(_die_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert [r.run_index for r in result.records] == list(range(10))
    assert [r.result for r in result.records] == [s.seed for s in specs]
    assert not result.holes


def test_worker_death_seen_at_submit_requeues_and_completes(tmp_path):
    # Regression: a worker that dies while the parent is busy settling a
    # result is first noticed by the next submit, which raises the pool
    # break there instead of from a future.  That must requeue, not abort.
    specs = _specs(12, base_seed=19)
    slowed = []

    def slow_first_progress(done, total):
        if not slowed:
            slowed.append(done)
            time.sleep(0.3)  # the worker dies meanwhile

    result = supervise_campaign(
        specs, partial(_die_after_returning_once, str(tmp_path)), n_jobs=2,
        progress=slow_first_progress,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert [r.run_index for r in result.records] == list(range(12))
    assert [r.result for r in result.records] == [s.seed for s in specs]
    assert not result.holes


def test_pool_break_casualty_waits_out_its_backoff(tmp_path):
    # Regression: runs charged by a pool break used to be resubmitted to
    # the next pool at once, skipping the seeded backoff the retry
    # telemetry reports for them.
    specs = _specs(4, base_seed=23)
    policy = RetryPolicy(max_retries=3, backoff_base_s=0.5)
    result = supervise_campaign(
        specs, partial(_stamp_and_die_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(retry=policy),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    starts = [float(x) for x in (tmp_path / "starts").read_text().split()]
    assert len(starts) == 2
    assert starts[1] - starts[0] >= backoff_delay(policy, specs[1].seed, 1)


def test_hard_deadline_kill_charges_only_the_wedged_run(tmp_path):
    # A worker stuck with SIGALRM blocked can only be unstuck by the
    # supervisor's hard-deadline pool kill; the synthesized timeout must
    # carry the wedged run's own index/seed and count exactly one timeout
    # (co-resident runs are requeued as pool casualties, not timeouts).
    specs = _specs(4, base_seed=17)
    result = supervise_campaign(
        specs, partial(_hang_hard_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(timeout_s=0.3),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3]
    assert result.timeouts == 1
    assert result.retries >= 1
    assert not result.holes


def test_repeated_death_shrinks_pool_then_salvages(tmp_path):
    specs = _specs(4, base_seed=3)
    result = supervise_campaign(
        specs, _die_always, n_jobs=4,
        config=SupervisorConfig(
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.01),
            allow_partial=True,
        ),
    )
    # Every repetition exhausted its retries against a pool that always
    # dies: the campaign survives as all-holes, with the shrink recorded.
    assert result.records == []
    assert sorted(result.hole_indices) == [0, 1, 2, 3]
    assert result.pool_shrinks >= 1
    for hole in result.holes:
        assert all(a.classification == "transient" for a in hole.attempts)


#: A two-worker campaign whose runs record their worker's pid and sleep.
_SLEEPING_CAMPAIGN = """
import sys
from functools import partial
from repro.parallel import supervise_campaign
from tests.test_supervisor_pool import _specs, _stamp_pid_and_sleep
supervise_campaign(_specs(4), partial(_stamp_pid_and_sleep, sys.argv[1]),
                   n_jobs=2)
"""


def _exited(pid: int) -> bool:
    """True once *pid* has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigkilled_campaign_leaves_no_pool_worker(tmp_path):
    # A SIGKILL'd campaign cannot shut its pool down; each worker must
    # notice it was orphaned and exit by itself within a few seconds.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_CAMPAIGN, str(tmp_path)],
        cwd=root, env=env,
    )
    pids = []
    try:
        deadline = time.monotonic() + 30
        while (len(pids) < 2 and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
            pids = [int(p.name.split("-")[1])
                    for p in tmp_path.glob("worker-*")]
        assert len(pids) == 2, f"expected two busy workers, saw {pids}"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while (not all(_exited(pid) for pid in pids)
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert [pid for pid in pids if not _exited(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in pids:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


# ------------------------------------------------- one pool per process


@pytest.fixture
def built(monkeypatch):
    """Every process pool the supervisor constructs, in order, starting
    from a process without one."""
    supervisor._drop_pool()
    pools = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    # The supervisor imports the pool class where it builds a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return pools


#: One small campaign per kind; three misses each, so n_jobs=2 pools them.
_LAUNCHERS = {
    "node": lambda **kw: run_campaign(
        _tiny_program, 4, "stock", 3,
        machine_factory=lambda: generic_smp(4), **kw),
    "cluster": lambda **kw: run_cluster_campaign(
        _tiny_program, 2, "stock", 3, nprocs_per_node=2, **kw),
    "batch": lambda **kw: run_batch_campaign(
        "easy", 2, "hpl", 3, runtime_model="sim",
        workload=WorkloadConfig(n_jobs=4, interarrival_us=3_000,
                                max_nodes=2), **kw),
}


def test_pooled_campaigns_reuse_one_pool_and_match_serial(tmp_path, built):
    provenance = {}
    for n_jobs in (1, 2):
        for kind, launch in _LAUNCHERS.items():
            path = tmp_path / f"{kind}-{n_jobs}.jsonl"
            launch(provenance_path=str(path), n_jobs=n_jobs)
            provenance[kind, n_jobs] = path.read_bytes()
    assert len(built) == 1
    for kind in _LAUNCHERS:
        assert provenance[kind, 2] == provenance[kind, 1]


def test_campaign_after_a_pool_death_runs_on_a_new_pool(tmp_path, built):
    first = supervise_campaign(
        _specs(4, base_seed=7), partial(_die_once, str(tmp_path)), n_jobs=2,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert first.retries >= 1
    assert len(built) == 2  # the pool that died and its replacement
    dead, live = built
    assert supervisor._pool is live

    second = supervise_campaign(_specs(4, base_seed=8), _pid, n_jobs=2)
    assert len(built) == 2
    assert second.retries == 0
    assert {r.result for r in second.records} <= set(live._processes)


def test_changing_n_jobs_builds_a_pool_of_the_new_size(built):
    supervise_campaign(_specs(4), _pid, n_jobs=2)
    third = supervise_campaign(_specs(6), _pid, n_jobs=3)
    assert [pool._max_workers for pool in built] == [2, 3]
    assert supervisor._pool is built[1]
    assert built[0]._shutdown_thread  # the two-worker pool was shut down
    assert {r.result for r in third.records} <= set(built[1]._processes)


def test_shrunk_pool_serves_one_campaign_only(built):
    shrunk = supervise_campaign(
        _specs(2), _die_always, n_jobs=2,
        config=SupervisorConfig(
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.01),
            allow_partial=True,
        ),
    )
    assert shrunk.pool_shrinks == 1
    assert built[-1]._max_workers == 1
    supervise_campaign(_specs(4), _ok, n_jobs=2)
    assert supervisor._pool._max_workers == 2


def test_campaign_that_raises_stops_its_runs_and_drops_the_pool(
        tmp_path, built):
    with pytest.raises(CampaignRunError):
        supervise_campaign(
            _specs(8), partial(_fail_first_while_others_run, str(tmp_path)),
            n_jobs=2,
            config=SupervisorConfig(retry=RetryPolicy(deterministic_retries=0)),
        )
    assert supervisor._pool is None
    assert built[0]._shutdown_thread
    # The shutdown cancelled the queued runs instead of running them out.
    assert len(list(tmp_path.glob("started-*"))) < 7


def test_environment_change_rebuilds_the_pool(monkeypatch, built):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    before = supervise_campaign(_specs(4), _sanitize_flag, n_jobs=2)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    after = supervise_campaign(_specs(4), _sanitize_flag, n_jobs=2)
    assert len(built) == 2
    assert {r.result for r in before.records} == {None}
    assert {r.result for r in after.records} == {"1"}


#: Two pooled campaigns on one pool; prints every worker pid it saw.
_TWO_CAMPAIGNS = """
from repro.parallel import supervise_campaign
from tests.test_supervisor_pool import _pid, _specs
pids = set()
for seed in (0, 1):
    result = supervise_campaign(_specs(4, base_seed=seed), _pid, n_jobs=2)
    pids.update(r.result for r in result.records)
print(" ".join(str(pid) for pid in sorted(pids)))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_normal_exit_leaves_no_pool_worker():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run(
        [sys.executable, "-c", _TWO_CAMPAIGNS], cwd=root, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert 1 <= len(pids) <= 2
    deadline = time.monotonic() + 1.0
    while (not all(_exited(pid) for pid in pids)
           and time.monotonic() < deadline):
        time.sleep(0.05)
    alive = [pid for pid in pids if not _exited(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []
