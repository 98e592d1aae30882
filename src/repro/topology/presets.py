"""Canonical machine configurations.

:func:`power6_js22` is the paper's evaluation platform; the others exist to
show HPL's placement logic generalizes ("we avoid making our solutions
architecture-dependent by including only hardware information common to most
platforms", §I) and to drive the cluster-scale experiments.
"""

from __future__ import annotations

from repro.topology.cache import (
    CacheHierarchy,
    CacheLevel,
    SharingScope,
    power6_cache_hierarchy,
)
from repro.topology.machine import Machine

__all__ = [
    "power6_js22",
    "generic_smp",
    "xeon_dual_socket",
    "bluegene_node",
]


def power6_js22() -> Machine:
    """The IBM js22 blade of the paper's §V: two POWER6 chips, two cores per
    chip, two SMT threads per core (8 CPUs), private L1/L2, no L3."""
    return Machine(
        chips=2,
        cores_per_chip=2,
        threads_per_core=2,
        cache=power6_cache_hierarchy(),
        smt_throughput=(1.0, 0.62),
        name="power6-js22",
    )


def generic_smp(n_cpus: int) -> Machine:
    """A flat SMP with *n_cpus* single-thread cores on one chip and a shared
    last-level cache — the simplest useful topology."""
    if n_cpus < 1:
        raise ValueError("need at least one CPU")
    cache = CacheHierarchy(
        levels=(
            CacheLevel("L1", size_kib=64, shared_by=SharingScope.CORE, latency_ns=1.5),
            CacheLevel("L2", size_kib=512, shared_by=SharingScope.CORE, latency_ns=6.0),
            CacheLevel("L3", size_kib=8192, shared_by=SharingScope.CHIP, latency_ns=30.0),
        )
    )
    return Machine(
        chips=1,
        cores_per_chip=n_cpus,
        threads_per_core=1,
        cache=cache,
        smt_throughput=(1.0,),
        name=f"smp{n_cpus}",
    )


def xeon_dual_socket(cores_per_socket: int = 4, smt: bool = True) -> Machine:
    """A contemporary (2010) Nehalem-style box: per-core L1/L2, chip-shared
    L3, optional 2-way SMT.  Exercises the "migration within a chip keeps
    some warmth" path the js22 cannot."""
    cache = CacheHierarchy(
        levels=(
            CacheLevel("L1", size_kib=64, shared_by=SharingScope.CORE, latency_ns=1.3),
            CacheLevel("L2", size_kib=256, shared_by=SharingScope.CORE, latency_ns=3.5),
            CacheLevel("L3", size_kib=8192, shared_by=SharingScope.CHIP, latency_ns=13.0),
        )
    )
    return Machine(
        chips=2,
        cores_per_chip=cores_per_socket,
        threads_per_core=2 if smt else 1,
        cache=cache,
        smt_throughput=(1.0, 0.70) if smt else (1.0,),
        name="xeon-2s",
    )


def bluegene_node() -> Machine:
    """A Blue Gene/P-like compute node (4 single-thread cores, shared L3) —
    the porting target named in the paper's future work."""
    cache = CacheHierarchy(
        levels=(
            CacheLevel("L1", size_kib=32, shared_by=SharingScope.CORE, latency_ns=2.0),
            CacheLevel("L2", size_kib=2048, shared_by=SharingScope.CORE, latency_ns=12.0),
            CacheLevel("L3", size_kib=8192, shared_by=SharingScope.CHIP, latency_ns=35.0),
        )
    )
    return Machine(
        chips=1,
        cores_per_chip=4,
        threads_per_core=1,
        cache=cache,
        smt_throughput=(1.0,),
        name="bluegene-node",
    )
