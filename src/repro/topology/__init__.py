"""Machine topology model.

The paper's scheduler decisions are driven by topology facts that are "common
to most platforms": how many hardware threads per core, cores per chip, chips
per machine, and which cache levels are shared between which CPUs.  This
package models exactly that — a tree ``Machine → Chip → Core → HWThread``
plus a cache-hierarchy description — and derives the Linux-style
**scheduling-domain** tree the load balancer walks.

The evaluation machine is the IBM *js22* blade: see
:func:`repro.topology.presets.power6_js22`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.cache": ("CacheLevel", "CacheHierarchy"),
    "repro.topology.machine": ("Machine", "Chip", "Core", "HWThread"),
    "repro.topology.domains": ("SchedDomain", "DomainLevel", "build_domains"),
    "repro.topology.presets": (
        "power6_js22", "generic_smp", "xeon_dual_socket",
        "bluegene_node",
    ),
})
