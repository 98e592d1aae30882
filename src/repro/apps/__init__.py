"""Application models.

The paper's workload is the MPI NAS Parallel Benchmarks: SPMD programs with
"a cyclic alternation between a computing phase ... and a synchronization
phase" (§II).  This package models them at that granularity:

* :mod:`repro.apps.spmd` — phase programs (compute / synchronize / blocking
  I/O) and builders for the iterate-and-barrier structure;
* :mod:`repro.apps.mpi` — the runtime coordinating *n* rank tasks through a
  program: barrier arrival bookkeeping, spin-wait vs blocking wait,
  application-reported timing (NAS-style: the timed section excludes
  initialization);
* :mod:`repro.apps.nas` — per-benchmark granularity/working-set parameters
  for cg/ep/ft/is/lu/mg in classes A and B, calibrated against Table II;
* :mod:`repro.apps.mpiexec` — the ``perf → chrt → mpiexec → ranks`` launcher
  chain whose residual context switches and migrations the paper's §V
  accounts for explicitly, plus the five scheduling modes the paper
  discusses (stock CFS, nice, RT, pinned affinity, HPC class).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.spmd": ("Phase", "PhaseKind", "Program"),
    "repro.apps.mpi": ("MpiApplication", "AppStats"),
    "repro.apps.nas": ("NasSpec", "nas_spec", "nas_program", "NAS_BENCHMARKS"),
    "repro.apps.mpiexec": ("LaunchMode", "MpiJob", "JobResult"),
})
