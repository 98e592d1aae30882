"""`WarmthModel.time_for_work` must stay exactly equivalent to the
reference bisection it replaced.

The Newton + integer-fixup implementation is a pure speedup: for every
input it must return the *same* integer µs as bisecting the historical
predicate ``mean_speed_over(state, n) * n * base_rate >= work_us``.
Campaign byte-identity (tests/test_golden_provenance.py) depends on it.
"""

from __future__ import annotations

import random

import pytest

from repro.memsim.warmth import TaskWarmth
from tests.oracles.warmth import UnfusedWarmthModel as WarmthModel
from repro.topology.presets import power6_js22


@pytest.fixture(scope="module")
def model() -> WarmthModel:
    return WarmthModel(power6_js22())


def reference_bisection(
    model: WarmthModel, state: TaskWarmth, work_us: int, base_rate: float
) -> int:
    """The historical implementation, kept verbatim as the oracle."""
    if work_us <= 0:
        return 0

    def work_done(delta: int) -> float:
        return model.mean_speed_over(state, delta) * delta * base_rate

    hi = int(work_us / (base_rate * model._cold_speed(state))) + 2
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if work_done(mid) >= work_us:
            hi = mid
        else:
            lo = mid
    return hi


def test_matches_reference_on_random_inputs(model: WarmthModel) -> None:
    rng = random.Random(20260806)
    for _ in range(3000):
        state = TaskWarmth(
            rng.random(),
            0,
            cold_speed=rng.choice([None, 0.4, 0.55, 0.7, 0.9]),
            rewarm_scale=rng.choice([0.5, 1.0, 2.0, 4.0]),
        )
        work = rng.randint(1, 5_000_000)
        rate = rng.uniform(0.3, 1.0)
        assert model.time_for_work(state, work, rate) == reference_bisection(
            model, state, work, rate
        ), (state.warmth, state.cold_speed, state.rewarm_scale, work, rate)


@pytest.mark.parametrize("work", [1, 2, 3, 7, 100, 10_000])
def test_matches_reference_on_tiny_segments(model: WarmthModel, work: int) -> None:
    for warmth in (0.0, 0.25, 0.999, 1.0):
        state = TaskWarmth(warmth, 0)
        for rate in (0.31, 0.5, 0.9995, 1.0):
            assert model.time_for_work(state, work, rate) == reference_bisection(
                model, state, work, rate
            )


def test_fully_warm_task_needs_no_newton(model: WarmthModel) -> None:
    # warmth == 1.0 makes the exponential term vanish (c == 0).
    state = TaskWarmth(1.0, 0)
    assert model.time_for_work(state, 1000, 1.0) == reference_bisection(
        model, state, 1000, 1.0
    )


def test_degenerate_inputs(model: WarmthModel) -> None:
    state = TaskWarmth(0.5, 0)
    assert model.time_for_work(state, 0, 1.0) == 0
    assert model.time_for_work(state, -5, 1.0) == 0
    with pytest.raises(ValueError):
        model.time_for_work(state, 100, 0.0)


def test_result_is_minimal_completing_duration(model: WarmthModel) -> None:
    state = TaskWarmth(0.2, 0, cold_speed=0.55, rewarm_scale=2.0)
    work, rate = 12_345, 0.87
    n = model.time_for_work(state, work, rate)
    assert model.mean_speed_over(state, n) * n * rate >= work
    assert model.mean_speed_over(state, n - 1) * (n - 1) * rate < work
