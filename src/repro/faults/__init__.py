"""Deterministic fault injection and recovery (`repro.faults`).

The paper's HPL kernel wins by *removing* machinery — no dynamic balancing,
no preemption of HPC tasks — which raises the robustness question the paper
never tests: what happens when a CPU dies or a rank crashes mid-run on a
kernel that refuses to rebalance?  This package answers it with a seeded,
replayable fault layer:

* :class:`FaultPlan` / :class:`FaultEvent` — the schedule (data);
* :class:`FaultInjector` — applies a plan to a booted kernel;
* :class:`FaultTolerance` — the MPI job's reaction policy to rank death
  (abort vs checkpoint/restart);
* :class:`StarvationWatchdog` — the soft-lockup analog flagging daemons
  starved by HPC spinners.

The recovery mechanisms themselves (CPU evacuation, collective failure
detection) live in the kernel and app layers; this package only decides
what breaks, and when.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.injector": ("AppliedFault", "FaultInjector"),
    "repro.faults.plan": ("FaultEvent", "FaultKind", "FaultPlan"),
    "repro.faults.tolerance": ("ClusterTolerance", "FaultTolerance"),
    "repro.faults.watchdog": (
        "StarvationIncident", "StarvationWatchdog", "WatchdogConfig",
    ),
})
