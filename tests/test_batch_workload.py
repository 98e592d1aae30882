"""Batch workload generator: determinism, shape, and digest contracts."""

from __future__ import annotations

import pytest

from repro.batch.workload import BatchJob, WorkloadConfig, generate_trace, job_ideal_us


def test_trace_deterministic_per_seed():
    cfg = WorkloadConfig(n_jobs=12)
    assert generate_trace(cfg, 42) == generate_trace(cfg, 42)


def test_trace_differs_across_seeds():
    cfg = WorkloadConfig(n_jobs=12)
    assert generate_trace(cfg, 1) != generate_trace(cfg, 2)


def test_trace_shape_invariants():
    cfg = WorkloadConfig(n_jobs=20, max_nodes=3, min_iters=2, max_iters=5)
    trace = generate_trace(cfg, 7)
    assert len(trace) == 20
    assert [j.job_id for j in trace] == list(range(20))
    prev = 0
    for job in trace:
        assert job.submit > prev  # strictly increasing arrivals
        prev = job.submit
        assert 1 <= job.n_nodes <= 3
        assert 2 <= job.n_iters <= 5
        assert job.nprocs_per_node == cfg.nprocs_per_node


def test_estimates_are_conservative_upper_bounds():
    # |z| in the error factor makes every estimate >= ideal * margin, so
    # rigid policies' walltime kills cannot fire on well-modelled jobs —
    # the invariant EASY's provable guarantee leans on.
    cfg = WorkloadConfig(n_jobs=30, estimate_margin=4.0)
    for job in generate_trace(cfg, 3):
        assert job.estimate >= job.ideal_us * cfg.estimate_margin


def test_job_ideal_matches_property():
    cfg = WorkloadConfig()
    trace = generate_trace(cfg, 0)
    for job in trace:
        assert job.ideal_us == job_ideal_us(job.n_iters, cfg)


def test_job_digest_stable_and_shape_sensitive():
    cfg = WorkloadConfig(n_jobs=4)
    a = generate_trace(cfg, 5)
    b = generate_trace(cfg, 5)
    assert [j.digest() for j in a] == [j.digest() for j in b]
    assert len(a[0].digest()) == 16
    # any field change moves the digest
    import dataclasses

    bumped = dataclasses.replace(a[0], estimate=a[0].estimate + 1)
    assert bumped.digest() != a[0].digest()


def test_shape_fingerprint_excludes_trace_position():
    # Two jobs differing only in id/submit/estimate induce the same
    # node-level simulation — the memoization contract of the sim model.
    import dataclasses

    cfg = WorkloadConfig(n_jobs=2)
    job = generate_trace(cfg, 9)[0]
    moved = dataclasses.replace(
        job, job_id=99, submit=job.submit + 12345, estimate=job.estimate * 2
    )
    assert (job.shape_fingerprint("stock", 30)
            == moved.shape_fingerprint("stock", 30))
    # but the regime is part of the shape
    assert (job.shape_fingerprint("stock", 30)
            != job.shape_fingerprint("hpl", 30))


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(n_jobs=0)
    with pytest.raises(ValueError):
        WorkloadConfig(max_nodes=0)
    with pytest.raises(ValueError):
        WorkloadConfig(min_iters=5, max_iters=3)
    with pytest.raises(ValueError):
        WorkloadConfig(estimate_margin=0.5)


def test_batch_job_validation():
    with pytest.raises(ValueError):
        BatchJob(job_id=0, submit=0, n_nodes=0, nprocs_per_node=4,
                 n_iters=3, estimate=10, seed=1)
    with pytest.raises(ValueError):
        BatchJob(job_id=0, submit=-1, n_nodes=1, nprocs_per_node=4,
                 n_iters=3, estimate=10, seed=1)


# -- the digest memo -------------------------------------------------------


def _trace_job(k=0):
    return generate_trace(WorkloadConfig(n_jobs=4), 9)[k]


def test_memoized_digest_equals_the_payload_digest(monkeypatch):
    import dataclasses

    import repro.parallel.jobspec as jobspec

    job = _trace_job(2)
    # The payload is every field of the job, so the uncached digest is
    # the digest of asdict(job).
    expected = jobspec.stable_digest(dataclasses.asdict(job), length=16)
    assert job.digest() == expected
    assert job.__dict__["_digest"] == expected

    def no_digest(*args, **kwargs):
        raise AssertionError("a digested job was digested again")

    monkeypatch.setattr(jobspec, "stable_digest", no_digest)
    assert job.digest() == expected


def test_digest_memo_leaves_equality_and_hash_alone():
    import dataclasses
    import pickle

    a, b = _trace_job(1), _trace_job(1)
    a.digest()
    assert "_digest" in a.__dict__ and "_digest" not in b.__dict__
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert "_digest" not in dataclasses.asdict(a)
    assert pickle.loads(pickle.dumps(a)) == b


def test_digest_memo_leaves_content_digests_alone():
    from repro.batch import simulate_batch
    from repro.parallel.jobspec import BatchRunSpec, stable_digest

    config = WorkloadConfig(n_jobs=6)
    spec = BatchRunSpec(run_index=0, seed=4, policy="easy", pool_nodes=4,
                        regime="stock", workload=config,
                        runtime_model="analytic")
    trace = generate_trace(config, 4)
    before = spec.digest(), [stable_digest(job) for job in trace]
    simulate_batch(trace, 4, "easy", runtime_model="analytic")
    assert all("_digest" in job.__dict__ for job in trace)
    assert (spec.digest(), [stable_digest(job) for job in trace]) == before
