"""Tests for custom machines, the noise decomposition, and the parameter
sweeps."""

import pytest

from repro.analysis.decomposition import decompose_nas_noise, decompose_noise
from repro.apps.spmd import Program
from repro.experiments.sweeps import (
    noise_intensity_sweep,
    scale_noise_profile,
    smt_factor_sweep,
    spin_threshold_sweep,
)
from repro.kernel.daemons import cluster_node_profile, quiet_profile
from repro.topology.cache import CacheHierarchy, CacheLevel, SharingScope
from repro.topology.machine import Machine
from repro.units import msecs


# ---------------------------------------------------------- custom machine


def test_parsed_machine_is_runnable():
    from repro.experiments.runner import run_program

    m = Machine(
        1, 4, 1,
        CacheHierarchy(levels=(
            CacheLevel("L1", size_kib=64, shared_by=SharingScope.CORE),
            CacheLevel("L2", size_kib=1024, shared_by=SharingScope.CORE),
        )),
        smt_throughput=(1.0,), name="tiny",
    )
    program = Program.iterative(name="t", n_iters=2, iter_work=msecs(2),
                                init_ops=1, finalize_ops=0)
    result = run_program(program, 4, "stock", seed=1, machine=m,
                         noise=quiet_profile())
    assert result.app_time > 0


# ------------------------------------------------------------ decomposition


def test_decomposition_accounting_identity():
    d = decompose_nas_noise("is", "A", regime="stock", seed=5)
    assert d.direct_overhead + d.indirect_overhead == pytest.approx(
        d.total_overhead, abs=2
    )
    assert 0.0 <= d.indirect_fraction <= 1.0
    assert "direct" in d.render()


def test_decomposition_noise_costs_something():
    d = decompose_nas_noise("cg", "A", regime="stock", seed=3)
    assert d.total_overhead > 0


def test_decomposition_hpl_nearly_noise_free():
    stock = decompose_nas_noise("is", "A", regime="stock", seed=4)
    hpl = decompose_nas_noise("is", "A", regime="hpl", seed=4)
    assert hpl.total_overhead < stock.total_overhead


def test_decompose_custom_program():
    program = Program.iterative(name="d", n_iters=3, iter_work=msecs(3),
                                init_ops=1, finalize_ops=0)
    d = decompose_noise(lambda: program, 4, regime="stock", seed=1)
    assert d.clean_time > 0


# ------------------------------------------------------------------- sweeps


def test_scale_noise_profile():
    base = cluster_node_profile()
    doubled = scale_noise_profile(base, 2.0)
    assert doubled.daemons[0].period_mean == base.daemons[0].period_mean // 2
    assert doubled.storm.interval_mean == base.storm.interval_mean // 2
    off = scale_noise_profile(base, 0.0)
    assert off.daemons == () and off.storm is None
    with pytest.raises(ValueError):
        scale_noise_profile(base, -1.0)


def test_noise_intensity_sweep_shape():
    sweep = noise_intensity_sweep(factors=(0.0, 2.0), n_runs=4, base_seed=1)
    stock = sweep.for_regime("stock")
    hpl = sweep.for_regime("hpl")
    assert len(stock) == 2 and len(hpl) == 2
    # More noise hurts stock more than HPL.
    stock_delta = stock[1].time_mean_s - stock[0].time_mean_s
    hpl_delta = hpl[1].time_mean_s - hpl[0].time_mean_s
    assert stock_delta >= hpl_delta - 1e-9
    assert "Sweep" in sweep.render()


def test_smt_factor_sweep_times_scale():
    sweep = smt_factor_sweep(factors=(0.5, 0.9), n_runs=3, base_seed=2)
    hpl = sweep.for_regime("hpl")
    # A better SMT factor means the same calibrated work finishes sooner.
    assert hpl[1].time_mean_s < hpl[0].time_mean_s
    with pytest.raises(ValueError):
        smt_factor_sweep(factors=(1.5,), n_runs=2)


def test_spin_threshold_sweep_switch_tradeoff():
    sweep = spin_threshold_sweep(thresholds_us=(500, 50_000), n_runs=4, base_seed=3)
    stock = sweep.for_regime("stock")
    # An (almost) pure-spin library context-switches less under stock Linux
    # than an eagerly-blocking one.
    assert stock[1].context_switches_mean <= stock[0].context_switches_mean
    with pytest.raises(ValueError):
        spin_threshold_sweep(thresholds_us=(0,), n_runs=2)
