"""System noise: kernel daemons and background jobs.

"The OS may occasionally suspend a parallel application thread in order to
run a lower priority thread (e.g., statistics collectors or kernel threads)"
(§II).  This module populates the simulated node with exactly that
population, following the OS-noise taxonomy the paper cites (Ferreira et
al.): **high-frequency short** noise (per-CPU kernel threads), **mid
frequency** noise (statistics collectors, cluster management), and rare
**low-frequency long** noise — here a "storm": a maintenance job (cron,
monitoring sweep, prologue/epilogue of another job) that spawns a batch of
CPU-hungry workers for seconds at a time.  Storms are what produce the
spectacular stock-Linux maxima of Table II (cg.A: 0.69 s best, 46.69 s
worst) and they are harmless under HPL because CFS workers simply never get
a CPU while HPC ranks are runnable.

All daemons are ordinary CFS tasks created through the kernel's public API —
the scheduler cannot tell them apart from the application, which is the
paper's entire point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.units import msecs, secs
from repro.kernel.kernel import Kernel
from repro.kernel.task import SchedPolicy, Task

__all__ = ["DaemonSpec", "StormSpec", "NoiseProfile", "DaemonSet", "cluster_node_profile", "quiet_profile"]


@dataclass(frozen=True)
class DaemonSpec:
    """A recurring background activity.

    Each instance sleeps for ~Exp(period_mean), wakes, runs a burst of
    LogNormal(median=duration_median, sigma=duration_sigma) work, and sleeps
    again.  ``per_cpu=True`` creates one pinned instance per CPU (kworker
    style); otherwise ``count`` free-floating instances are created, whose
    wake placement is the stock kernel's (they land wherever the balancer
    puts them — often on top of an MPI rank).
    """

    name: str
    period_mean: int
    duration_median: int
    duration_sigma: float
    per_cpu: bool = False
    count: int = 1
    nice: int = 0
    policy: str = SchedPolicy.NORMAL

    def __post_init__(self) -> None:
        if self.period_mean <= 0 or self.duration_median <= 0:
            raise ValueError(f"daemon {self.name}: period and duration must be positive")
        if self.duration_sigma < 0:
            raise ValueError(f"daemon {self.name}: sigma cannot be negative")
        if self.count < 1:
            raise ValueError(f"daemon {self.name}: count must be >= 1")


@dataclass(frozen=True)
class StormSpec:
    """Rare heavyweight background job (cron sweep, monitoring collection,
    prologue/epilogue of a co-scheduled job).

    At ~Exp(interval_mean) intervals a storm begins: a shell-script-like
    coordinator forks CPU-bound worker processes one after another (gap
    ~Exp(spawn_gap_mean)); each worker computes for
    LogNormal(median=duration_median, sigma=duration_sigma) and exits.  The
    total worker count is drawn log-normally, giving the occasional monster
    sweep.  The constant forking/exec-ing is what drives the balancer wild —
    the mechanism behind Table Ia's 615–3657 migration maxima.
    """

    interval_mean: int = secs(400)
    workers_median: int = 24
    workers_sigma: float = 0.9
    duration_median: int = secs(2)
    duration_sigma: float = 1.2
    spawn_gap_mean: int = msecs(350)
    nice: int = 0

    def __post_init__(self) -> None:
        if self.interval_mean <= 0 or self.duration_median <= 0:
            raise ValueError("storm interval and duration must be positive")
        if self.workers_median < 1:
            raise ValueError("storm needs at least one worker")
        if self.spawn_gap_mean <= 0:
            raise ValueError("spawn_gap_mean must be positive")


@dataclass(frozen=True)
class NoiseProfile:
    """A complete node noise configuration.

    ``confine_to_cpus`` models the classic ``isolcpus`` mitigation: every
    *floating* daemon and storm worker is restricted to the given CPUs
    (per-CPU kernel threads stay pinned to their CPU — they cannot be
    evicted on real hardware either, which is exactly why isolation alone
    never reaches HPL's numbers).
    """

    daemons: Tuple[DaemonSpec, ...] = ()
    storm: Optional[StormSpec] = None
    label: str = "custom"
    confine_to_cpus: Optional[frozenset] = None

    def confined(self, cpus) -> "NoiseProfile":
        """A copy of this profile with floating noise confined to *cpus*."""
        from dataclasses import replace

        return replace(self, confine_to_cpus=frozenset(cpus),
                       label=f"{self.label}-isol")


def cluster_node_profile() -> NoiseProfile:
    """The default population of a 2010 diskless cluster compute node
    running a full Linux distribution — calibrated so a stock kernel shows
    noise-event counts of Table Ia's order (tens of daemon bursts per second
    system-wide) and HPL's counters collapse to Table Ib's."""
    return NoiseProfile(
        daemons=(
            # High-frequency, short: per-CPU kernel threads.
            DaemonSpec("kworker", period_mean=msecs(900), duration_median=120,
                       duration_sigma=0.8, per_cpu=True),
            DaemonSpec("ksoftirqd", period_mean=msecs(1800), duration_median=80,
                       duration_sigma=0.6, per_cpu=True),
            # Mid-frequency: floating system daemons.
            DaemonSpec("statsd", period_mean=msecs(800), duration_median=600,
                       duration_sigma=1.0, count=3),
            DaemonSpec("clusterd", period_mean=msecs(3000), duration_median=msecs(2, ) if False else 2500,
                       duration_sigma=1.2, count=2),
            DaemonSpec("syslogd", period_mean=msecs(4000), duration_median=400,
                       duration_sigma=0.9, count=1),
            # Low-frequency, long-ish: periodic housekeeping.
            DaemonSpec("crond", period_mean=secs(30), duration_median=msecs(15),
                       duration_sigma=1.3, count=1),
        ),
        storm=StormSpec(),
        label="cluster-node-2010",
    )


def quiet_profile() -> NoiseProfile:
    """No background activity at all — for unit tests and clean baselines."""
    return NoiseProfile(daemons=(), storm=None, label="quiet")


class DaemonSet:
    """Instantiates a :class:`NoiseProfile` on a kernel and runs it."""

    def __init__(self, kernel: Kernel, profile: NoiseProfile) -> None:
        self.kernel = kernel
        self.profile = profile
        self.tasks: List[Task] = []
        self.storm_tasks: List[Task] = []
        self.bursts = 0
        self.storms = 0
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Create all daemon tasks and schedule their first wakeups."""
        if self._started:
            raise RuntimeError("daemon set already started")
        self._started = True
        for spec in self.profile.daemons:
            if spec.per_cpu:
                for cpu in range(self.kernel.machine.n_cpus):
                    self._spawn_daemon(spec, pinned_cpu=cpu)
            else:
                for i in range(spec.count):
                    self._spawn_daemon(spec, instance=i)
        if self.profile.storm is not None:
            self._schedule_storm(self.profile.storm)

    def stop(self) -> int:
        """Fail-stop the whole noise population (node-crash injection).

        Kills every live daemon and storm worker and quiesces the storm
        generator; pending wake events become no-ops.  Returns how many
        tasks were killed.  Idempotent."""
        if self._stopped:
            return 0
        self._stopped = True
        killed = 0
        for task in self.tasks + self.storm_tasks:
            if task.alive:
                self.kernel.kill(task)
                killed += 1
        return killed

    # ------------------------------------------------------------- daemons

    def _spawn_daemon(
        self, spec: DaemonSpec, *, pinned_cpu: Optional[int] = None, instance: int = 0
    ) -> None:
        name = (
            f"{spec.name}/{pinned_cpu}" if pinned_cpu is not None
            else f"{spec.name}.{instance}"
        )
        if pinned_cpu is not None:
            affinity = frozenset({pinned_cpu})
        else:
            affinity = self.profile.confine_to_cpus
        # Daemons are born asleep: spawn with a zero-length segment that
        # immediately blocks, then live on the wake/burst/sleep cycle.
        task = self.kernel.spawn(
            name,
            policy=spec.policy,
            nice=spec.nice,
            affinity=affinity,
            is_kernel_thread=pinned_cpu is not None,
            work=1,
            on_segment_end=lambda: None,  # replaced below
        )
        task.on_segment_end = lambda t=task, s=spec: self._daemon_sleep(t, s)
        self.tasks.append(task)

    def _rng_name(self, spec_name: str) -> str:
        return f"noise.{spec_name}"

    def _daemon_sleep(self, task: Task, spec: DaemonSpec) -> None:
        """Burst finished: sleep for an exponential period, then wake."""
        self.kernel.block(task)
        delay = max(
            1, int(self.kernel.sim.rng.exponential(self._rng_name(spec.name), spec.period_mean))
        )
        self.kernel.sim.after(
            delay,
            lambda: self._daemon_wake(task, spec),
            priority=3,
            label=f"daemon:{task.name}",
        )

    def _daemon_wake(self, task: Task, spec: DaemonSpec) -> None:
        if self._stopped or not task.alive:
            return
        import math

        rng = self.kernel.sim.rng
        mu = math.log(spec.duration_median)
        burst = max(10, int(rng.lognormal(self._rng_name(spec.name) + ".dur", mu, spec.duration_sigma)))
        self.bursts += 1
        self.kernel.set_segment(task, burst, lambda t=task, s=spec: self._daemon_sleep(t, s))
        self.kernel.wake(task)

    # --------------------------------------------------------------- storms

    def _schedule_storm(self, spec: StormSpec) -> None:
        delay = max(1, int(self.kernel.sim.rng.exponential("noise.storm", spec.interval_mean)))
        self.kernel.sim.after(
            delay, lambda: self._storm_fire(spec), priority=3, label="storm"
        )

    def _storm_fire(self, spec: StormSpec) -> None:
        if self._stopped:
            return
        import math

        rng = self.kernel.sim.rng
        n_workers = max(
            1,
            int(rng.lognormal("noise.storm.n", math.log(spec.workers_median), spec.workers_sigma)),
        )
        self.storms += 1
        self._storm_spawn_wave(spec, self.storms, n_workers)
        self._schedule_storm(spec)

    def _storm_spawn_wave(self, spec: StormSpec, storm_id: int, remaining: int) -> None:
        """Fork one worker, then schedule the next — the storm is a script
        forking subprocesses, not a single batch."""
        if remaining <= 0 or self._stopped:
            return
        import math

        rng = self.kernel.sim.rng
        duration = max(
            msecs(20),
            int(rng.lognormal("noise.storm.dur", math.log(spec.duration_median), spec.duration_sigma)),
        )
        worker = self.kernel.spawn(
            f"storm{storm_id}.w{remaining}",
            policy=SchedPolicy.NORMAL,
            nice=spec.nice,
            affinity=self.profile.confine_to_cpus,
            work=1,
            on_segment_end=lambda: None,
        )
        state = {"left": duration}
        worker.on_segment_end = lambda w=worker, st=state: self._storm_worker_step(w, st)
        self.kernel.sched_exec(worker)
        self.storm_tasks.append(worker)
        gap = max(1, int(rng.exponential("noise.storm.gap", spec.spawn_gap_mean)))
        self.kernel.sim.after(
            gap,
            lambda: self._storm_spawn_wave(spec, storm_id, remaining - 1),
            priority=3,
            label=f"storm{storm_id}:spawn",
        )

    def _storm_worker_step(self, worker: Task, state: dict) -> None:
        """Workers interleave compute chunks with short I/O sleeps (they are
        scripts reading files and piping output) — so per-CPU runnable counts
        fluctuate and the periodic balancer keeps finding imbalance to fix,
        one migration at a time."""
        left = state["left"]
        if left <= 0:
            self.kernel.exit(worker)
            return
        rng = self.kernel.sim.rng
        chunk = min(left, max(msecs(5), int(rng.exponential("noise.storm.chunk", msecs(250)))))
        state["left"] = left - chunk

        def _io_then_continue(w=worker, st=state) -> None:
            self.kernel.block(w)
            io = max(1, int(rng.exponential("noise.storm.io", msecs(8))))
            def _resume() -> None:
                if not w.alive:  # pragma: no cover
                    return
                self.kernel.set_segment(w, 1, lambda: self._storm_worker_step(w, st))
                self.kernel.wake(w)
            self.kernel.sim.after(io, _resume, priority=3, label="storm:io")

        self.kernel.set_segment(worker, chunk, _io_then_continue)
