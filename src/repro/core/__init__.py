"""HPL — the paper's contribution.

High Performance Linux modifies the stock scheduler in exactly three ways,
each implemented here against the substrate in :mod:`repro.kernel`:

1. :class:`~repro.core.hpl_class.HplClass` — a new scheduling class between
   the Real-Time and CFS classes with a simple round-robin run queue.  Its
   position in the class list is the whole preemption story: the scheduler
   core will never pick a CFS task (user or kernel daemon) on a CPU that has
   a runnable HPC task.
2. :class:`~repro.core.hpl_balancer.HplForkPlacer` — topology-aware
   placement performed **only at fork()**: spread across chips, then cores
   within a chip, then SMT threads within a core (one task per core before
   using second hardware threads).
3. Global suppression of dynamic load balancing ("HPL performs no load
   balancing for *any* scheduling class in order to reduce direct overhead
   along with indirect overhead", §V) — a kernel-configuration switch
   consumed by :mod:`repro.kernel.load_balancer`.

User-facing activation mirrors the paper: tasks enter the HPC class through
``sched_setscheduler`` (:meth:`repro.kernel.kernel.Kernel.sched_setscheduler`),
which the modified ``chrt`` of the launcher chain (:mod:`repro.apps.mpiexec`)
calls on itself before it forks ``mpiexec``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.hpl_class": ("HplClass", "HplParams", "HplQueue"),
    "repro.core.hpl_balancer": ("HplForkPlacer",),
})
