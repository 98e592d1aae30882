"""First-order cache performance model.

The paper attributes the *indirect* cost of scheduling noise to cache
effects: "a non-HPC process may evict some of the HPC task's cache lines,
causing extra misses when the HPC task restarts", and "when the OS moves a
task to another CPU, that task may lose its cache contents and cannot run at
full speed until the cache rewarms" (§III).

:class:`~repro.memsim.warmth.WarmthModel` captures exactly those two effects
with a scalar per-task *warmth* state.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memsim.warmth": ("WarmthModel", "WarmthParams", "TaskWarmth"),
})
