"""Exact dispatcher clocks stay ``int`` until processor sharing divides.

Rigid schedules (fcfs, easy, priority) are integer arithmetic end to end:
with the dispatcher's one rational constructor, ``_rational``, made
unusable they must still complete, and give the same result as with it.
Fractional sharing is the only policy that builds a rational, and a deep
queue under ``share`` does build non-integral clocks, so the seam is live
(the sanitizer checks that an integral value is always stored as its
``int``).
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


def _no_rational(*args, **kwargs):
    raise AssertionError("a rigid schedule built a rational")


@pytest.mark.parametrize("armed", [False, True], ids=["unarmed", "mtbf"])
@pytest.mark.parametrize("policy", RIGID)
def test_rigid_policies_never_build_a_fraction(policy, armed, monkeypatch):
    trace = _trace()
    kw = dict(runtime_model="analytic", job_retries=16,
              fault_plan=_mtbf(trace) if armed else None)
    expected = simulate_batch(trace, 8, policy, **kw)
    monkeypatch.setattr(dispatcher_mod, "_rational", _no_rational)
    result = simulate_batch(trace, 8, policy, **kw)
    assert result == expected
    assert result.n_jobs == len(trace) and not result.failed
    if armed:
        assert result.requeues > 0


def test_share_builds_non_integral_clocks(monkeypatch):
    trace = generate_trace(
        WorkloadConfig(n_jobs=200, interarrival_us=1_840, max_nodes=4), 0
    )
    expected = simulate_batch(trace, 16, "share", runtime_model="analytic")
    built = []
    real = dispatcher_mod._rational

    def counting(n, d):
        value = real(n, d)
        built.append(type(value) is not int)
        return value

    monkeypatch.setattr(dispatcher_mod, "_rational", counting)
    result = simulate_batch(trace, 16, "share", runtime_model="analytic")
    assert result == expected
    assert result.queue_depth_peak > 50
    assert sum(built) > 0
    assert not all(float(o.finish).is_integer() for o in result.jobs)
