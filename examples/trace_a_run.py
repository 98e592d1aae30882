#!/usr/bin/env python3
"""Trace a run and render the Gantt view: who ran where, who got preempted.

Attaches an observer (event trace plus per-class and per-task counters) to
a stock-Linux kernel, runs a small 4-rank application alongside the node's
daemons, and prints:

* the per-CPU occupancy Gantt of the timed section,
* a ``perf sched``-style migration log,
* the ``perf stat``-style counters of the ranks, as ``hpl-repro stat
  --ranks-only`` prints them.

Usage::

    python examples/trace_a_run.py [seed]
"""

import sys

from repro.analysis.timeline import build_timeline, render_gantt
from repro.apps.mpi import MpiApplication
from repro.apps.spmd import Program
from repro.kernel.daemons import DaemonSet, cluster_node_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.obs import observe, render_stat
from repro.sim.trace import TraceKind
from repro.topology.presets import generic_smp
from repro.units import msecs, secs


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3

    kernel = Kernel(generic_smp(4), KernelConfig.stock(), seed=seed)
    observer = observe(kernel)
    trace = observer.trace
    DaemonSet(kernel, cluster_node_profile()).start()

    program = Program.iterative(
        name="traced", n_iters=6, iter_work=msecs(30), init_ops=3, finalize_ops=1
    )
    app = MpiApplication(kernel, program, 4, on_complete=lambda a: kernel.sim.stop())
    kernel.sim.at(msecs(20), app.launch, label="launch")
    kernel.sim.run_until(secs(120))

    stats = app.stats
    print(f"application finished: timed section {stats.app_time / 1e6:.3f}s\n")

    # Gantt of the whole timed section.
    assert stats.timer_started_at is not None and stats.timer_stopped_at is not None
    window = build_timeline(
        trace,
        start=stats.timer_started_at,
        end=stats.timer_stopped_at,
        idle_pids=observer.idle_pids(),
    )
    names = observer.names()
    print(render_gantt(window, names=names, width=72))

    # Migration log.
    migrations = trace.events(kind=TraceKind.MIGRATE)
    print(f"\n{len(migrations)} migrations recorded; first few:")
    for e in migrations[:8]:
        print(f"  t={e.time:>9}us pid {e.pid} ({names.get(e.pid, '?')}) "
              f"cpu{e.prev_cpu} -> cpu{e.cpu}")

    # The ranks' counters.
    perf = kernel.perf
    ranks = {t.pid for t in app.rank_tasks()}
    for pid in [pid for pid in perf.task_counters if pid not in ranks]:
        del perf.task_counters[pid]
    print()
    print(render_stat(perf, wall_time_us=kernel.now, app_time_s=stats.app_time / 1e6,
                      title=f"{program.name} under stock (seed {seed})"), end="")


if __name__ == "__main__":
    main()
