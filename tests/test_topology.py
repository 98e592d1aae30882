"""Tests for machine topology, caches, and scheduling domains."""

import pytest

from repro.topology.cache import CacheHierarchy, CacheLevel, SharingScope, power6_cache_hierarchy
from repro.topology.domains import DomainLevel, build_domains
from repro.topology.machine import Machine
from repro.topology.presets import (
    bluegene_node,
    generic_smp,
    power6_js22,
    xeon_dual_socket,
)


# ------------------------------------------------------------------- caches


def test_cache_level_validation():
    with pytest.raises(ValueError):
        CacheLevel("L1", size_kib=0, shared_by=SharingScope.CORE)
    with pytest.raises(ValueError):
        CacheLevel("L1", size_kib=64, shared_by="bogus")


def test_hierarchy_requires_levels():
    with pytest.raises(ValueError):
        CacheHierarchy(levels=())


def test_power6_hierarchy_is_core_private():
    h = power6_cache_hierarchy()
    assert h.widest_shared_scope() == SharingScope.CORE
    # Nothing shared beyond a core: cross-core migration retains 0.
    assert h.shared_fraction(SharingScope.CHIP) == 0.0
    assert h.shared_fraction(SharingScope.CORE) == 1.0


def test_shared_fraction_partial():
    h = CacheHierarchy(
        levels=(
            CacheLevel("L1", 64, SharingScope.CORE),
            CacheLevel("L3", 192, SharingScope.CHIP),
        )
    )
    assert h.shared_fraction(SharingScope.CHIP) == pytest.approx(0.75)
    assert h.shared_fraction(SharingScope.CORE) == 1.0
    assert h.shared_fraction(SharingScope.MACHINE) == 0.0


# ------------------------------------------------------------------ machine


def test_js22_shape():
    m = power6_js22()
    assert m.n_chips == 2
    assert m.n_cores == 4
    assert m.n_cpus == 8
    assert m.threads_per_core == 2
    assert m.cores_per_chip == 2
    assert [t.cpu_id for t in m.cpus] == list(range(8))


def test_cpu_ids_follow_topology_order():
    m = power6_js22()
    cpu0, cpu1 = m.cpu(0), m.cpu(1)
    assert cpu0.core is cpu1.core  # SMT siblings adjacent
    assert cpu0.smt_index == 0 and cpu1.smt_index == 1
    assert m.cpu(0).chip.chip_id == 0
    assert m.cpu(4).chip.chip_id == 1


def test_common_scope():
    m = power6_js22()
    assert m.common_scope(0, 0) == SharingScope.THREAD
    assert m.common_scope(0, 1) == SharingScope.CORE
    assert m.common_scope(0, 2) == SharingScope.CHIP
    assert m.common_scope(0, 4) == SharingScope.MACHINE


def test_migration_retained_warmth_js22():
    m = power6_js22()
    assert m.migration_retained_warmth(0, 0) == 1.0
    assert m.migration_retained_warmth(0, 1) == 1.0  # SMT sibling, same caches
    assert m.migration_retained_warmth(0, 2) == 0.0  # cross-core, no shared level
    assert m.migration_retained_warmth(0, 4) == 0.0


def test_migration_retained_warmth_with_shared_l3():
    m = xeon_dual_socket()
    within_chip = m.migration_retained_warmth(0, 2)
    cross_chip = m.migration_retained_warmth(0, m.n_cpus // 2)
    assert 0.0 < within_chip < 1.0  # the chip-wide L3 keeps something
    assert cross_chip == 0.0


def test_siblings():
    m = power6_js22()
    assert [t.cpu_id for t in m.cpu(0).siblings()] == [1]


def test_invalid_topology_rejected():
    cache = power6_cache_hierarchy()
    with pytest.raises(ValueError):
        Machine(0, 1, 1, cache)
    with pytest.raises(ValueError):
        Machine(1, 1, 2, cache, smt_throughput=(1.0,))  # missing factor
    with pytest.raises(ValueError):
        Machine(1, 1, 2, cache, smt_throughput=(1.0, 1.2))  # >1
    with pytest.raises(ValueError):
        Machine(1, 1, 2, cache, smt_throughput=(0.6, 0.9))  # increasing


def test_cpu_index_bounds():
    m = generic_smp(2)
    with pytest.raises(IndexError):
        m.cpu(2)


def test_describe_mentions_shape():
    text = power6_js22().describe()
    assert "2 chips" in text and "8 CPUs" in text


# ------------------------------------------------------------------ presets


def test_presets_are_consistent():
    assert generic_smp(6).n_cpus == 6
    assert bluegene_node().n_cpus == 4
    assert xeon_dual_socket(cores_per_socket=4, smt=True).n_cpus == 16
    assert xeon_dual_socket(cores_per_socket=4, smt=False).n_cpus == 8


def test_generic_smp_requires_cpu():
    with pytest.raises(ValueError):
        generic_smp(0)


# ------------------------------------------------------------------ domains


def test_js22_has_three_domain_levels():
    m = power6_js22()
    domains = build_domains(m)
    chain = domains[0]
    assert [d.level for d in chain] == [
        DomainLevel.SMT,
        DomainLevel.CORE,
        DomainLevel.CHIP,
    ]


def test_domain_spans_and_groups():
    m = power6_js22()
    chain = build_domains(m)[0]
    smt, core, chip = chain
    assert smt.span == (0, 1)
    assert smt.groups == ((0,), (1,))
    assert sorted(core.span) == [0, 1, 2, 3]
    assert core.local_group == (0, 1)
    assert sorted(chip.span) == list(range(8))
    assert chip.local_group == (0, 1, 2, 3)


def test_local_group_always_first():
    m = power6_js22()
    for cpu_id, chain in build_domains(m).items():
        for dom in chain:
            assert cpu_id in dom.groups[0]


def test_degenerate_levels_skipped():
    m = generic_smp(4)  # 1 thread/core, 1 chip
    chain = build_domains(m)[0]
    assert [d.level for d in chain] == [DomainLevel.CORE]


def test_intervals_grow_with_level():
    m = power6_js22()
    chain = build_domains(m)[0]
    intervals = [d.base_interval for d in chain]
    assert intervals == sorted(intervals)


def test_single_cpu_has_no_domains():
    m = generic_smp(1)
    assert build_domains(m)[0] == []
