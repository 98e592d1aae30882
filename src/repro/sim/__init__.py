"""Deterministic discrete-event simulation substrate.

This package provides the three primitives everything else is built on:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock.
* :class:`~repro.sim.events.EventQueue` — a stable priority queue of timed
  callbacks with cancellation.
* :class:`~repro.sim.rng.RngStreams` — named, independently-seeded random
  streams so that, e.g., adding one more noise daemon does not perturb the
  random numbers drawn by the MPI workload (variance-reduction discipline
  borrowed from classic simulation practice).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.events": ("Event", "EventQueue"),
    "repro.sim.rng": ("RngStreams",),
    "repro.sim.trace": (
        "SchedTrace", "TraceEvent", "TraceKind", "attach_trace",
    ),
})
