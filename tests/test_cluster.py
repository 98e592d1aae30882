"""Tests for the noise-resonance models."""

import numpy as np
import pytest

from repro.cluster.resonance import (
    DelayProfile,
    analytic_resonance,
    measure_phase_delays,
    resonance_curve,
)
from repro.units import msecs


def test_delay_profile_validation():
    with pytest.raises(ValueError):
        DelayProfile("x", base_phase_s=0.0, delays_s=(0.1,))
    with pytest.raises(ValueError):
        DelayProfile("x", base_phase_s=1.0, delays_s=())
    with pytest.raises(ValueError):
        DelayProfile("x", base_phase_s=1.0, delays_s=(-0.1,))


def test_analytic_resonance_approaches_one():
    points = analytic_resonance(p=0.01, delay_s=0.002, base_phase_s=0.03,
                                node_counts=[1, 10, 100, 1000, 100000])
    probs = [pt.p_phase_disturbed for pt in points]
    assert probs == sorted(probs)
    assert probs[0] == pytest.approx(0.01)
    assert probs[-1] > 0.999  # "approaches 1.0" (SS II)
    slowdowns = [pt.slowdown for pt in points]
    assert slowdowns == sorted(slowdowns)
    assert slowdowns[-1] == pytest.approx((0.03 + 0.002) / 0.03, rel=1e-3)


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_resonance(p=1.5, delay_s=0.1, base_phase_s=1, node_counts=[1])
    with pytest.raises(ValueError):
        analytic_resonance(p=0.1, delay_s=0.1, base_phase_s=1, node_counts=[0])


def test_bootstrap_resonance_monotone():
    rng = np.random.default_rng(1)
    # 5% of phases carry a 2ms delay.
    delays = tuple(0.002 if rng.random() < 0.05 else 0.0 for _ in range(400))
    profile = DelayProfile("synthetic", base_phase_s=0.03, delays_s=delays)
    points = resonance_curve(profile, [1, 4, 16, 64, 256], n_bootstrap=50)
    slowdowns = [pt.slowdown for pt in points]
    assert slowdowns == sorted(slowdowns)
    assert slowdowns[0] < slowdowns[-1]


def test_bootstrap_large_n_uses_order_statistics():
    profile = DelayProfile("x", base_phase_s=0.01,
                           delays_s=tuple(np.linspace(0, 0.001, 100)))
    points = resonance_curve(profile, [2000], n_bootstrap=10)
    # E[max of 2000 draws] approaches the sample maximum.
    assert points[0].expected_penalty_s == pytest.approx(0.001, rel=0.05)


def test_measure_phase_delays_runs_simulator():
    profile = measure_phase_delays(
        regime="hpl", nprocs=8, n_iters=10, iter_work=msecs(5), seed=3
    )
    assert len(profile.delays_s) == 10
    assert profile.base_phase_s > 0
    assert min(profile.delays_s) == 0.0  # the fastest phase defines the base


def test_hpl_profile_quieter_than_stock():
    stock = measure_phase_delays(regime="stock", nprocs=8, n_iters=25,
                                 iter_work=msecs(10), seed=5)
    hpl = measure_phase_delays(regime="hpl", nprocs=8, n_iters=25,
                               iter_work=msecs(10), seed=5)
    assert hpl.mean_delay_s <= stock.mean_delay_s
