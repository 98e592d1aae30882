"""Batch campaigns on the supervised fabric: determinism, cache, provenance.

Uses the analytic runtime model throughout — it prices jobs from the job's
own seeded RNG stream, so campaigns are fast and every byte-identity check
exercises the same code paths the sim model would.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.batch.campaign import (
    BatchCampaignResult,
    build_batch_specs,
    run_batch_campaign,
)
from repro.batch.workload import WorkloadConfig
from repro.obs.provenance import batch_run_record
from repro.obs.telemetry import CampaignTelemetry

N_RUNS = 4

_WL = WorkloadConfig(n_jobs=6, interarrival_us=3_000, max_nodes=2)


def _run(tmp, *, n_jobs=1, use_cache=False, resume=False, policy="easy",
         telemetry=None):
    prov = os.path.join(tmp, "prov.jsonl")
    result = run_batch_campaign(
        policy, 2, "stock", N_RUNS, base_seed=3, workload=_WL,
        runtime_model="analytic", provenance_path=prov, n_jobs=n_jobs,
        use_cache=use_cache,
        cache_dir=os.path.join(tmp, "cache") if use_cache else None,
        resume=resume, telemetry=telemetry,
    )
    return prov, result


def test_campaign_runs_and_aggregates(tmp_path):
    prov, result = _run(str(tmp_path))
    assert isinstance(result, BatchCampaignResult)
    assert result.n_runs == N_RUNS
    assert result.policy == "easy"
    assert len(result.mean_waits_us()) == N_RUNS
    assert all(r.n_jobs == _WL.n_jobs for r in result.results)
    # repetitions use distinct derived seeds -> distinct traces
    digests = {r.schedule_digest() for r in result.results}
    assert len(digests) == N_RUNS


def test_provenance_byte_identical_serial_vs_parallel(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    prov1, r1 = _run(str(tmp_path / "a"), n_jobs=1)
    prov4, r4 = _run(str(tmp_path / "b"), n_jobs=4)
    assert open(prov1, "rb").read() == open(prov4, "rb").read()
    assert [r.schedule_digest() for r in r1.results] == \
           [r.schedule_digest() for r in r4.results]


def test_provenance_byte_identical_across_cache_warm_resume(tmp_path):
    tmp = str(tmp_path)
    prov, cold = _run(tmp, use_cache=True)
    first = open(prov, "rb").read()
    prov, warm = _run(tmp, use_cache=True, resume=True)
    assert open(prov, "rb").read() == first
    assert warm.replayed == N_RUNS  # every repetition replayed, none re-run
    assert [r.schedule_digest() for r in warm.results] == \
           [r.schedule_digest() for r in cold.results]


def test_provenance_records_are_batch_kind(tmp_path):
    prov, result = _run(str(tmp_path))
    records = [json.loads(line) for line in open(prov, encoding="utf-8")]
    assert len(records) == N_RUNS
    for i, rec in enumerate(records):
        assert rec["kind"] == "batch"
        assert rec["policy"] == "easy"
        assert rec["run_index"] == i
        assert rec["pool_nodes"] == 2
        assert rec["n_jobs"] == _WL.n_jobs
        assert len(rec["schedule_digest"]) == 16
        assert rec["head_delays"] == 0
    # execution metadata lives in the sidecar, not the stream
    meta = json.load(open(prov + ".meta.json", encoding="utf-8"))
    assert meta["n_runs"] == N_RUNS


def test_batch_run_record_matches_result(tmp_path):
    _, result = _run(str(tmp_path))
    r = result.results[0]
    rec = batch_run_record(r, bench="t", run_index=0, seed=11)
    assert rec["makespan_us"] == r.makespan_us
    assert rec["utilization"] == r.utilization
    assert rec["backfills"] == r.backfills
    assert rec["policy_params"] is None or isinstance(rec["policy_params"], dict)


def test_telemetry_counters_flow(tmp_path):
    tel = CampaignTelemetry()
    # a share campaign co-locates; counters must reflect the results
    _, result = _run(str(tmp_path), policy="share", telemetry=tel)
    reg = tel.registry
    assert (reg.counter("batch.colocations").value
            == result.total_colocations())
    assert reg.counter("batch.kills").value == result.total_kills()
    assert (reg.gauge("batch.queue_depth").high_water
            == max(r.queue_depth_peak for r in result.results))


def test_specs_validate_eagerly():
    with pytest.raises(ValueError, match="unknown batch regime"):
        build_batch_specs("fcfs", 2, "windows", 1, workload=_WL)
    with pytest.raises(ValueError, match="unknown runtime model"):
        build_batch_specs("fcfs", 2, "stock", 1, workload=_WL,
                          runtime_model="oracle")
    with pytest.raises(ValueError, match="unknown batch policy"):
        build_batch_specs("sjf", 2, "stock", 1, workload=_WL)
    with pytest.raises(ValueError, match="pool has only"):
        build_batch_specs("fcfs", 1, "stock", 1, workload=_WL)
    with pytest.raises(ValueError, match="n_runs"):
        build_batch_specs("fcfs", 2, "stock", 0, workload=_WL)


def test_spec_digest_contract():
    a, b = build_batch_specs("easy", 2, "stock", 2, workload=_WL)
    # run_index is execution bookkeeping, not content: two specs with the
    # same seed hash identically regardless of position...
    assert dataclasses.replace(a, run_index=9).digest() == a.digest()
    # ...but every content field moves the digest
    assert a.digest() != b.digest()  # derived seed differs
    assert dataclasses.replace(a, policy="fcfs").digest() != a.digest()
    assert dataclasses.replace(a, regime="hpl").digest() != a.digest()
    assert dataclasses.replace(a, pool_nodes=3).digest() != a.digest()
    assert (dataclasses.replace(a, runtime_model="analytic").digest()
            != a.digest())
    wl = dataclasses.replace(_WL, interarrival_us=4_000)
    assert dataclasses.replace(a, workload=wl).digest() != a.digest()
    params = (("max_share", 2),)
    assert (dataclasses.replace(a, policy_params=params).digest()
            != a.digest())


def test_resume_without_cache_rejected(tmp_path):
    from repro.parallel.supervisor import NoJournalError

    with pytest.raises(NoJournalError):
        _run(str(tmp_path), use_cache=False, resume=True)


#: BatchResult fields added with the fault universe; each has a default.
_FAULT_FIELDS = ("requeues", "preempts", "drains", "node_fails", "failed",
                 "node_lost_us", "busy_node_us", "fault_plan_digest")


def test_results_pickled_without_fault_fields_read_defaults(tmp_path):
    """A BatchResult cached before the fault universe unpickles with its
    defaulted fields read from the class, so campaign totals, telemetry
    and provenance need no per-field fallbacks."""
    import pickle

    from repro.batch.campaign import _count_schedule
    from repro.batch.dispatcher import BatchResult
    from repro.parallel.engine import RunRecord

    _, campaign = _run(str(tmp_path))
    fresh = campaign.results[0]
    stale = BatchResult.__new__(BatchResult)
    stale.__dict__.update(
        {k: v for k, v in vars(fresh).items() if k not in _FAULT_FIELDS}
    )
    old = pickle.loads(pickle.dumps(stale))
    assert not set(_FAULT_FIELDS) & set(vars(old))

    totals = BatchCampaignResult(
        label="old", policy="easy", regime="stock", results=[old]
    )
    assert totals.total_requeues() == 0
    assert totals.total_preempts() == 0
    assert totals.total_failed() == 0
    assert totals.total_node_lost_us() == 0.0
    assert (batch_run_record(old, bench="t", run_index=0, seed=1)
            == batch_run_record(fresh, bench="t", run_index=0, seed=1))
    tel = CampaignTelemetry()
    _count_schedule(RunRecord(0, 1, "d", old), tel)
    assert tel.registry.counter("batch.requeues").value == 0
