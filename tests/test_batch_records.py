"""Cheap batch records and digest memos are indistinguishable from the
plain constructions they replace.

* The dispatcher builds each :class:`JobOutcome` without the frozen
  ``__init__`` (``_job_outcome``); the record must equal a constructed one
  in ``==``, ``hash``, ``repr``, :func:`dataclasses.asdict` and pickle
  bytes, and stay frozen.
* :meth:`FaultPlan.digest` memoizes in the instance ``__dict__``; the
  plan's ``==``, ``hash``, ``asdict`` and the spec digest that carries it
  must not notice.
* :func:`stable_digest` skips ``_jsonable`` for flat scalar dicts; the
  bytes it hashes must be the ones the normalizing path would hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pickle
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.batch.dispatcher import JobOutcome, _job_outcome, simulate_batch
from repro.batch.workload import WorkloadConfig, generate_trace
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.parallel.jobspec import BatchRunSpec, _jsonable, stable_digest

FIELDS = {
    "job_id": 7, "digest": "0123456789abcdef", "submit": 1_000,
    "n_nodes": 2, "estimate": 9_000, "base_runtime": 4_000,
    "start": 1_500.0, "finish": 5_500.0, "wait": 500.0, "runtime": 4_000.0,
    "response": 4_500.0, "bounded_slowdown": 1.125, "killed": False,
    "backfilled": True, "shared_peak": 1, "requeues": 2, "failed": False,
    "held_node_us": 8_000.0,
}


def _same_record(cheap: JobOutcome, built: JobOutcome) -> None:
    assert cheap == built
    assert hash(cheap) == hash(built)
    assert repr(cheap) == repr(built)
    assert dataclasses.asdict(cheap) == dataclasses.asdict(built)
    assert pickle.dumps(cheap) == pickle.dumps(built)


def test_cheap_record_equals_a_constructed_one():
    _same_record(_job_outcome(**FIELDS), JobOutcome(**FIELDS))


def test_cheap_record_stays_frozen():
    cheap = _job_outcome(**FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cheap.start = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del cheap.finish


def test_dispatched_records_equal_constructed_ones():
    # Both construction sites: completions, and terminal failures (one
    # retry against a dense fail/return timeline exhausts some budgets).
    trace = generate_trace(
        WorkloadConfig(n_jobs=40, interarrival_us=1_500, max_nodes=4), 3)
    horizon = trace[-1].submit
    plan = FaultPlan.mtbf(3, horizon=horizon, n_nodes=8,
                          mtbf_us=horizon // 4, repair_us=horizon // 20)
    for policy in ("easy", "share"):
        result = simulate_batch(trace, 8, policy, runtime_model="analytic",
                                fault_plan=plan, job_retries=1)
        assert any(o.failed for o in result.jobs)
        assert any(not o.failed for o in result.jobs)
        for o in result.jobs:
            _same_record(o, JobOutcome(**dataclasses.asdict(o)))


def _batch_plan() -> FaultPlan:
    return FaultPlan.schedule(
        (
            FaultEvent(at=5_000, kind=FaultKind.NODE_FAIL, node=0),
            FaultEvent(at=9_000, kind=FaultKind.NODE_DRAIN, node=1,
                       preempt=True),
            FaultEvent(at=20_000, kind=FaultKind.NODE_RETURN, node=0),
        ),
        label="memo",
    )


def test_plan_digest_memo_is_invisible():
    plan, twin = _batch_plan(), _batch_plan()
    spec = BatchRunSpec(run_index=0, seed=1, policy="easy", pool_nodes=2,
                        regime="stock", workload=WorkloadConfig(n_jobs=4),
                        runtime_model="analytic", fault_plan=plan)
    before = (hash(plan), dataclasses.asdict(plan), spec.digest(),
              pickle.dumps(spec.fingerprint()))
    first = plan.digest()
    assert plan.digest() is first  # served from the memo
    assert first == twin.digest()
    assert plan == twin and hash(plan) == hash(twin)
    after = (hash(plan), dataclasses.asdict(plan), spec.digest(),
             pickle.dumps(spec.fingerprint()))
    assert after == before


class _Level(IntEnum):
    LOW = 1


def _normalized_digest(payload, length: int = 32) -> str:
    blob = json.dumps(_jsonable(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=8),
    st.just(_Level.LOW),  # an int subclass: must take the slow path
)


@given(st.dictionaries(st.text(max_size=8), _SCALARS, max_size=10))
def test_flat_payload_fast_path_matches_normalized_digest(payload):
    assert stable_digest(payload) == _normalized_digest(payload)
    assert stable_digest(payload, length=16) == _normalized_digest(payload, 16)



def test_only_exact_scalars_take_the_fast_path(monkeypatch):
    import repro.parallel.jobspec as jobspec

    calls = []
    monkeypatch.setattr(jobspec, "_jsonable",
                        lambda value: calls.append(value) or _jsonable(value))
    jobspec.stable_digest({"a": 1, "b": 2.5, "c": "x", "d": None, "e": True})
    assert calls == []
    for payload in ({"a": 1, "odd": _Level.LOW}, {"a": 1, "odd": (1, 2)},
                    {"a": {"nested": 1}}, {1: "int key"}):
        jobspec.stable_digest(payload)
        assert calls and calls[0] is payload
        calls.clear()
