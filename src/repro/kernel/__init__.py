"""A discrete-event model of the Linux 2.6.3x task scheduler.

This package is the substrate the paper modifies.  It reproduces, at the
policy level, the pieces of the kernel the paper discusses:

* the **scheduler framework** — an ordered list of scheduling classes walked
  by the scheduler core's pick-next loop (§IV);
* **CFS** with vruntime fairness, sleeper bonuses, and wakeup preemption;
* the **Real-Time class** (FIFO/RR) including the migration-daemon-assisted
  balancing behaviour the paper analyzes;
* per-domain **load balancing** (periodic, idle, and fork/wake placement);
* **kernel daemons and system noise** (the CFS tasks whose interference the
  paper measures);
* **perf software events** (context-switches, cpu-migrations) with the same
  counting semantics as the tool used in §V.

The paper's contribution, the HPL class, lives in :mod:`repro.core` and plugs
into this framework exactly as described in the paper: "we implemented the
HPL task scheduler as a new Scheduler Class between the standard Real-Time
and CFS Linux classes".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernel.task": ("Task", "TaskState", "SchedPolicy"),
    "repro.kernel.kernel": ("Kernel", "KernelConfig"),
    "repro.kernel.invariants": (
        "InvariantViolation", "SchedInvariantChecker", "attach_sanitizer",
        "sanitizer_enabled",
    ),
})
