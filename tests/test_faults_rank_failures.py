"""Rank crashes: detection, abort, and checkpoint/restart semantics."""

import pytest

from repro.apps.mpi import MpiApplication
from repro.apps.mpiexec import LaunchMode, MpiJob
from repro.apps.spmd import Program
from repro.cli import main
from repro.experiments.runner import run_nas
from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultTolerance
from repro.kernel.kernel import Kernel, KernelConfig
from repro.topology.presets import power6_js22


def _program(n_iters=6):
    return Program.iterative(
        name="mini", n_iters=n_iters, iter_work=20_000, sync_latency=50
    )


def _app(ft, *, seed=7, nprocs=4, n_iters=6):
    kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=seed)
    app = MpiApplication(kernel, _program(n_iters), nprocs, fault_tolerance=ft)
    app.launch()
    return kernel, app


def test_crash_rank_guards():
    kernel, app = _app(FaultTolerance())
    assert not app.crash_rank(99)  # no such rank
    assert not app.crash_rank(-1)
    assert app.crash_rank(1)
    assert not app.crash_rank(1)  # already dead
    assert app.stats.rank_crashes == 1


def test_abort_tears_down_whole_job():
    kernel, app = _app(FaultTolerance(mode="abort", detection_timeout=3_000))
    kernel.sim.after(40_000, lambda: app.crash_rank(2))
    kernel.sim.run_until(5_000_000)
    stats = app.stats
    assert app.done and stats.aborted
    assert stats.detection_latency_us == 3_000
    assert stats.lost_work_us == stats.wall_time  # whole run lost
    # Every rank task is dead — nothing left spinning at a collective.
    assert all(not r.task.alive for r in app.ranks)


def test_restart_resumes_from_checkpoint():
    ft = FaultTolerance(mode="restart", detection_timeout=3_000,
                        checkpoint_every=2, restart_cost=1_000)
    kernel, app = _app(ft)
    kernel.sim.after(60_000, lambda: app.crash_rank(1))
    kernel.sim.run_until(60_000_000)
    stats = app.stats
    assert app.done and not stats.aborted
    assert stats.restarts == 1
    assert stats.recovery_time_us == 1_000
    assert stats.lost_work_us > 0
    assert app._checkpoint_pos >= 0  # a checkpoint was actually taken
    # The job re-ran the post-checkpoint phases: slower than fault-free.
    k2, clean = _app(ft)
    k2.sim.run_until(60_000_000)
    assert stats.wall_time > clean.stats.wall_time


def test_restart_without_checkpoints_restarts_from_scratch():
    ft = FaultTolerance(mode="restart", detection_timeout=2_000,
                        checkpoint_every=0, restart_cost=500)
    kernel, app = _app(ft)
    kernel.sim.after(50_000, lambda: app.crash_rank(0))
    kernel.sim.run_until(60_000_000)
    assert app.done and app.stats.restarts == 1
    assert app._checkpoint_pos == -1  # never checkpointed: full rollback


def test_second_restart_counts_lost_work_from_the_first_rollback():
    # No checkpoint is ever taken, so each rollback restarts from scratch.
    # The work lost to the second crash starts at the first rollback (52 ms),
    # not at launch: the two charges add up to the last detection instant.
    ft = FaultTolerance(mode="restart", detection_timeout=2_000,
                        checkpoint_every=0, restart_cost=500)
    kernel, app = _app(ft)
    kernel.sim.after(50_000, lambda: app.crash_rank(0))
    kernel.sim.after(80_000, lambda: app.crash_rank(0))
    kernel.sim.run_until(60_000_000)
    assert app.done and app.stats.restarts == 2
    assert app.stats.lost_work_us == 82_000
    assert app.stats.lost_work_us <= app.stats.wall_time


def test_restart_after_early_exits_recounts_every_rank():
    # Rank 0 runs behind and crashes after its peers have already exited;
    # the rollback respawns all four, so all four must exit again.
    ft = FaultTolerance(mode="restart", detection_timeout=2_000,
                        checkpoint_every=2, restart_cost=500)
    kernel, app = _app(ft, n_iters=1)
    exited_before_crash = []

    def crash_straggler():
        exited_before_crash.append(app.stats.ranks_exited)
        assert app.crash_rank(0)

    def watch():
        if app.stats.ranks_exited > 0:
            crash_straggler()
        else:
            kernel.sim.after(1, watch)

    kernel.sim.after(1, watch)
    kernel.sim.run_until(60_000_000)
    assert exited_before_crash and exited_before_crash[0] > 0
    assert app.done and not app.stats.aborted
    assert app.stats.restarts == 1
    assert app.stats.ranks_exited == app.nprocs
    assert app.stats.finished_at is not None
    assert all(not r.task.alive for r in app.ranks)


def test_max_restarts_falls_back_to_abort():
    ft = FaultTolerance(mode="restart", detection_timeout=2_000,
                        checkpoint_every=1, restart_cost=500, max_restarts=1)
    kernel, app = _app(ft)
    # Crash after every (re)start until the budget runs out.
    def crash_later():
        if not app.done:
            app.crash_rank(2)
            kernel.sim.after(40_000, crash_later)
    kernel.sim.after(40_000, crash_later)
    kernel.sim.run_until(120_000_000)
    assert app.done and app.stats.aborted
    assert app.stats.restarts == 1  # used the budget, then gave up
    assert app.stats.lost_work_us == app.stats.wall_time  # charged once


def test_all_ranks_crashed_still_detected():
    kernel, app = _app(FaultTolerance(mode="abort", detection_timeout=2_000))
    def crash_all():
        for i in range(app.nprocs):
            app.crash_rank(i)
    kernel.sim.after(30_000, crash_all)
    kernel.sim.run_until(5_000_000)
    assert app.done and app.stats.aborted
    assert app.stats.rank_crashes == app.nprocs


def test_respawned_ranks_keep_their_scheduling_template():
    ft = FaultTolerance(mode="restart", detection_timeout=2_000,
                        checkpoint_every=1, restart_cost=500)
    kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=3)
    app = MpiApplication(kernel, _program(), 4, fault_tolerance=ft)
    app.launch(pin=True)  # rank i pinned to cpu i
    kernel.sim.after(50_000, lambda: app.crash_rank(3))
    kernel.sim.run_until(60_000_000)
    assert app.done and app.stats.restarts == 1
    for rank in app.ranks:
        assert rank.task.affinity == frozenset({rank.index})


def test_fault_tolerance_config_alone_changes_nothing():
    ft = FaultTolerance(mode="restart", checkpoint_every=2)
    k1, a1 = _app(None)
    k1.sim.run_until(60_000_000)
    k2, a2 = _app(ft)
    k2.sim.run_until(60_000_000)
    assert a1.stats.wall_time == a2.stats.wall_time
    assert a1.stats.app_time == a2.stats.app_time
    assert k1.perf.cpu_migrations == k2.perf.cpu_migrations
    assert k1.perf.context_switches == k2.perf.context_switches


def test_crash_through_launcher_chain():
    kernel = Kernel(power6_js22(), KernelConfig.hpl(), seed=11)
    job = MpiJob(
        kernel, _program(), 8, mode=LaunchMode.HPC,
        fault_tolerance=FaultTolerance(mode="restart", detection_timeout=4_000,
                                       checkpoint_every=2, restart_cost=800),
    )
    job.start(at=1_000)
    kernel.sim.after(80_000, lambda: job.app.crash_rank(5))
    kernel.sim.run_until(120_000_000)
    assert job.result is not None  # perf/chrt/mpiexec teardown still ran
    assert job.result.app_stats.restarts == 1
    assert not job.result.app_stats.aborted


def test_aborted_job_still_tears_down_launcher_chain():
    kernel = Kernel(power6_js22(), KernelConfig.stock(), seed=5)
    job = MpiJob(kernel, _program(), 8,
                 fault_tolerance=FaultTolerance(mode="abort",
                                                detection_timeout=2_000))
    job.start(at=1_000)
    kernel.sim.after(100_000, lambda: job.app.crash_rank(0))
    kernel.sim.run_until(60_000_000)
    assert job.result is not None
    assert job.result.app_stats.aborted
    assert job.result.wall_time > 0


# ------------------------------------- pinned ranks restarting under hotplug

#: Rank 6 is pinned to CPU 6; --offline-cores 1 takes CPUs 6 and 7 down at
#: the same instant the rank crashes, so its respawn finds no online CPU.
_PINNED_RESTART = ["faults", "is", "A", "--regime", "pinned",
                   "--offline-cores", "1", "--crash-rank", "6",
                   "--ft-mode", "restart"]


def test_pinned_respawn_parks_until_its_cpu_returns(capsys):
    rc = main(_PINNED_RESTART + ["--online-after", "20000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "restarts        : 1" in out
    assert "completed       : yes" in out
    assert "cpu_online   ok: unparked 1 task(s)" in out


def test_pinned_respawn_whose_cpu_never_returns_fails_cleanly(capsys):
    rc = main(_PINNED_RESTART)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("is.A.8 under pinned (seed 0): FAILED\n")
    assert "did not finish" in captured.out
    assert captured.err == ""


def test_fault_free_pinned_run_unchanged():
    result = run_nas("is", "A", "pinned", seed=0)
    assert (result.wall_time, result.cpu_migrations, result.context_switches) == (
        390_896, 12, 346,
    )
