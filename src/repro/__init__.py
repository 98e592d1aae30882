"""repro — a reproduction of *Designing OS for HPC Applications: Scheduling*
(Gioiosa, McKee, Valero; IEEE CLUSTER 2010).

The package simulates, at the policy level, the paper's whole stack:

* :mod:`repro.topology` — the dual-socket POWER6 js22 machine model;
* :mod:`repro.kernel` — a Linux 2.6.3x scheduler model (CFS, RT, idle
  classes, scheduling domains, load balancing, daemons, perf events);
* :mod:`repro.core` — **HPL**, the paper's contribution: the HPC scheduling
  class between RT and CFS, fork-time topology-aware placement, and global
  load-balancing suppression;
* :mod:`repro.apps` — MPI/SPMD workload models of the NAS benchmarks and
  the ``perf → chrt → mpiexec`` launcher chain;
* :mod:`repro.experiments` — regenerators for every figure and table of §V.

Quickstart::

    from repro import run_nas

    stock = run_nas("ep", "A", kernel="stock", seed=1)
    hpl = run_nas("ep", "A", kernel="hpl", seed=1)
    print(stock.app_time_s, stock.cpu_migrations, stock.context_switches)
    print(hpl.app_time_s, hpl.cpu_migrations, hpl.context_switches)
"""

from repro._lazy import lazy_exports

# The package version, reported by ``hpl-repro --version``.  Campaign cache
# keys do not use it: they carry ``repro.parallel.jobspec.model_epoch()``,
# a hash of the model source.
__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.presets": ("power6_js22",),
    "repro.topology.machine": ("Machine",),
    "repro.kernel.kernel": ("Kernel", "KernelConfig"),
    "repro.kernel.task": ("Task", "SchedPolicy"),
    "repro.apps.mpiexec": ("LaunchMode", "MpiJob"),
    "repro.apps.nas": ("nas_spec", "nas_program"),
    "repro.experiments.runner": ("run_nas", "run_campaign", "CampaignResult"),
})
__all__.append("__version__")
