"""Exact dispatcher clocks stay ``int`` until processor sharing divides.

Rigid schedules (fcfs, easy, priority) are integer arithmetic end to end:
with :class:`fractions.Fraction` made unusable inside the dispatcher they
must still complete, and give the same result as with it.  Fractional
sharing is the only policy that may build a Fraction (the sanitizer checks
that an integral one is always stored back as its ``int``).
"""

from __future__ import annotations

import pytest

import repro.batch.dispatcher as dispatcher_mod
from repro.batch.dispatcher import simulate_batch
from repro.batch.workload import WorkloadConfig, generate_trace
from repro.faults.plan import FaultPlan

RIGID = ("fcfs", "easy", "priority")


def _trace():
    return generate_trace(
        WorkloadConfig(n_jobs=60, interarrival_us=2_000, max_nodes=4), 5
    )


def _mtbf(trace):
    horizon = trace[-1].submit
    return FaultPlan.mtbf(2, horizon=horizon, n_nodes=8,
                          mtbf_us=horizon // 3, repair_us=horizon // 50)


def _no_fraction(*args, **kwargs):
    raise AssertionError("a rigid schedule built a Fraction")


@pytest.mark.parametrize("armed", [False, True], ids=["unarmed", "mtbf"])
@pytest.mark.parametrize("policy", RIGID)
def test_rigid_policies_never_build_a_fraction(policy, armed, monkeypatch):
    trace = _trace()
    kw = dict(runtime_model="analytic", job_retries=16,
              fault_plan=_mtbf(trace) if armed else None)
    expected = simulate_batch(trace, 8, policy, **kw)
    monkeypatch.setattr(dispatcher_mod, "Fraction", _no_fraction)
    result = simulate_batch(trace, 8, policy, **kw)
    assert result == expected
    assert result.n_jobs == len(trace) and not result.failed
    if armed:
        assert result.requeues > 0
