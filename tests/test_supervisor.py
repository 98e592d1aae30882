"""Supervised execution layer: classification, backoff, journal, salvage.

Everything here drives :func:`supervise_campaign` serially (closures are
fine in-process); the pool-specific behaviour — worker death, hard kills,
degradation — lives in ``test_supervisor_pool.py``.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro.apps.spmd import Program
from repro.experiments.runner import build_campaign_specs
from repro.kernel.invariants import InvariantViolation
from repro.parallel import (
    CampaignJournal,
    CampaignRunError,
    NoJournalError,
    ResultCache,
    RetryPolicy,
    RunTimeoutError,
    SupervisorConfig,
    backoff_delay,
    backoff_schedule,
    campaign_digest,
    classify_failure,
    journal_path_for,
    supervise_campaign,
)
from repro.topology.presets import generic_smp
from repro.units import msecs


def _tiny_program() -> Program:
    return Program.iterative(
        name="sup", n_iters=2, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )


def _specs(n_runs: int, base_seed: int = 0):
    return build_campaign_specs(
        _tiny_program, 4, "stock", n_runs,
        base_seed=base_seed, machine_factory=lambda: generic_smp(4),
    )


def _ok(spec):
    return spec.seed * 2, None


# ------------------------------------------------------------ classification


def test_classify_failure_matrix():
    assert classify_failure(InvariantViolation("class_order", "x")) == "fatal"
    assert classify_failure(RunTimeoutError(0, 1, 2.0)) == "transient"
    assert classify_failure(OSError(errno.EAGAIN, "fork failed")) == "transient"
    assert classify_failure(OSError(errno.ENOMEM, "oom")) == "transient"
    assert classify_failure(ValueError("sim bug")) == "deterministic"
    assert classify_failure(KeyError("missing")) == "deterministic"


def test_classify_failure_oserror_from_simulation_is_deterministic():
    # An OSError that is a property of the spec (missing input, bad perms,
    # no errno at all) must fail fast, not burn the transient retry budget.
    missing = FileNotFoundError(errno.ENOENT, "missing input")
    assert classify_failure(missing) == "deterministic"
    assert classify_failure(PermissionError(errno.EACCES, "x")) == "deterministic"
    assert classify_failure(OSError("no errno")) == "deterministic"


def test_classify_failure_by_name_for_pickled_types():
    # BrokenProcessPool instances that crossed a pickle boundary keep their
    # class *name* even when isinstance() can no longer match.
    class BrokenProcessPool(Exception):
        pass

    class TimeoutError(Exception):  # noqa: A001 - deliberate shadow
        pass

    assert classify_failure(BrokenProcessPool()) == "transient"
    assert classify_failure(TimeoutError()) == "transient"

    class InvariantViolation(Exception):  # noqa: F811 - deliberate shadow
        pass

    assert classify_failure(InvariantViolation()) == "fatal"


# ----------------------------------------------------------------- backoff


def test_backoff_delay_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base_s=0.05, backoff_factor=2.0,
                         backoff_max_s=10.0, jitter_frac=0.25)
    for seed in (0, 17, 123456):
        for attempt in (1, 2, 3, 8):
            a = backoff_delay(policy, seed, attempt)
            b = backoff_delay(policy, seed, attempt)
            assert a == b  # pure function of (policy, seed, attempt)
            base = min(10.0, 0.05 * 2.0 ** (attempt - 1))
            assert base * 0.75 <= a <= base * 1.25


def test_backoff_schedule_grows_and_caps():
    policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=4.0,
                         backoff_max_s=5.0, jitter_frac=0.0)
    assert backoff_schedule(policy, 7, 4) == [1.0, 4.0, 5.0, 5.0]


def test_backoff_jitter_varies_by_seed_and_attempt():
    policy = RetryPolicy(jitter_frac=0.25)
    d_seeds = {backoff_delay(policy, s, 1) for s in range(20)}
    assert len(d_seeds) > 1
    d_attempts = {
        backoff_delay(policy, 3, k) / (0.05 * 2.0 ** (k - 1))
        for k in range(1, 6)
    }
    assert len(d_attempts) > 1


def test_backoff_delay_rejects_zero_attempt():
    with pytest.raises(ValueError):
        backoff_delay(RetryPolicy(), 0, 0)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(deterministic_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_frac=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=-0.1)


def test_supervisor_config_validation():
    with pytest.raises(ValueError):
        SupervisorConfig(timeout_s=0)


# ------------------------------------------------------------------- retry


def test_transient_failure_retries_then_succeeds():
    specs = _specs(3, base_seed=5)
    calls = {"n": 0}
    slept = []

    def flaky(spec):
        if spec.run_index == 1:
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError(errno.EAGAIN, "transient harness fault")
        return spec.seed, None

    result = supervise_campaign(
        specs, flaky, n_jobs=1, sleep=slept.append,
        config=SupervisorConfig(retry=RetryPolicy(max_retries=3)),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2]
    assert result.retries == 2
    assert not result.holes
    # The waits observed are exactly the seeded backoff schedule.
    expected = backoff_schedule(RetryPolicy(), specs[1].seed, 2)
    assert slept == pytest.approx(expected, abs=0.05)


def test_serial_campaigns_never_build_a_process_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial campaign built a process pool")

    # The supervisor imports the pool class where it builds a pool.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    specs = _specs(4, base_seed=29)
    calls = {"n": 0}

    def flaky(spec):
        if spec.run_index == 2:
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.EAGAIN, "transient harness fault")
        return spec.seed, None

    result = supervise_campaign(specs, flaky, n_jobs=1, sleep=lambda s: None)
    assert [r.result for r in result.records] == [s.seed for s in specs]
    assert result.retries == 1

    # A warm cache with one miss runs that miss in-process at any n_jobs.
    cache = ResultCache(str(tmp_path))
    supervise_campaign(specs, _ok, n_jobs=1, cache=cache)
    cache.path_for(specs[2].digest()).unlink()
    warm = supervise_campaign(specs, _ok, n_jobs=2, cache=cache)
    assert [r.cache_hit for r in warm.records] == [True, True, False, True]
    assert [r.result for r in warm.records] == [s.seed * 2 for s in specs]


def test_deterministic_failure_fails_fast_with_history():
    specs = _specs(3, base_seed=1)
    calls = {"n": 0}

    def broken(spec):
        if spec.run_index == 2:
            calls["n"] += 1
            raise ValueError("sim bug")
        return spec.seed, None

    with pytest.raises(CampaignRunError) as excinfo:
        supervise_campaign(specs, broken, n_jobs=1, sleep=lambda s: None)
    err = excinfo.value
    assert calls["n"] == 2  # one confirmation retry, then fail fast
    assert err.run_index == 2
    assert len(err.attempts) == 2
    assert all(a.error == "ValueError" for a in err.attempts)
    assert all(a.classification == "deterministic" for a in err.attempts)
    assert "2 attempt(s)" in str(err)


def test_fatal_invariant_violation_never_retried():
    specs = _specs(2, base_seed=3)
    calls = {"n": 0}

    def violating(spec):
        calls["n"] += 1
        raise InvariantViolation("class_order", "lower class ran first")

    with pytest.raises(CampaignRunError) as excinfo:
        supervise_campaign(
            specs, violating, n_jobs=1, sleep=lambda s: None,
            config=SupervisorConfig(retry=RetryPolicy(max_retries=5)),
        )
    assert calls["n"] == 1  # exactly one attempt — fatal is never retried
    err = excinfo.value
    assert err.attempts[0].classification == "fatal"
    assert isinstance(err.__cause__, InvariantViolation)


def test_fatal_raises_even_under_allow_partial():
    specs = _specs(2, base_seed=3)

    def violating(spec):
        raise InvariantViolation("task_books", "task lost")

    with pytest.raises(CampaignRunError):
        supervise_campaign(
            specs, violating, n_jobs=1, sleep=lambda s: None,
            config=SupervisorConfig(allow_partial=True),
        )


# ----------------------------------------------------------- partial salvage


def test_allow_partial_records_holes_with_attempt_history():
    specs = _specs(5, base_seed=2)

    def broken(spec):
        if spec.run_index in (1, 3):
            raise ValueError("always fails")
        return spec.seed, None

    result = supervise_campaign(
        specs, broken, n_jobs=1, sleep=lambda s: None,
        config=SupervisorConfig(allow_partial=True),
    )
    assert [r.run_index for r in result.records] == [0, 2, 4]
    assert result.hole_indices == [1, 3]
    for hole in result.holes:
        assert hole.seed == specs[hole.run_index].seed
        assert hole.digest == specs[hole.run_index].digest()
        assert len(hole.attempts) == 2  # initial + confirmation retry
        assert hole.as_dict()["attempts"][0]["error"] == "ValueError"


def test_without_allow_partial_exhausted_retries_raise():
    specs = _specs(3, base_seed=2)

    def broken(spec):
        if spec.run_index == 1:
            raise ValueError("always fails")
        return spec.seed, None

    with pytest.raises(CampaignRunError):
        supervise_campaign(specs, broken, n_jobs=1, sleep=lambda s: None)


# ----------------------------------------------------------------- timeouts


def test_serial_timeout_kills_and_retries_hung_run():
    import time as _time

    specs = _specs(3, base_seed=4)
    calls = {"n": 0}

    def sleepy_once(spec):
        if spec.run_index == 1:
            calls["n"] += 1
            if calls["n"] == 1:
                _time.sleep(30)  # wedged; the in-process alarm must fire
        return spec.seed, None

    result = supervise_campaign(
        specs, sleepy_once, n_jobs=1, sleep=lambda s: None,
        config=SupervisorConfig(timeout_s=0.2),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2]
    assert result.timeouts == 1
    assert result.retries == 1


def test_timeout_error_names_run_and_budget():
    err = RunTimeoutError(7, 1234, 2.5)
    assert "run 7" in str(err)
    assert "2.5s" in str(err)
    assert err.seed == 1234


# ------------------------------------------------------------------ journal


def test_journal_roundtrip(tmp_path):
    specs = _specs(4, base_seed=6)
    digest = campaign_digest(specs)
    path = journal_path_for(tmp_path, digest)
    cache = ResultCache(str(tmp_path))
    result = supervise_campaign(
        specs, _ok, n_jobs=1, cache=cache, journal_path=path,
    )
    assert len(result.records) == 4
    done = CampaignJournal.read_done(path, digest)
    assert sorted(done) == [0, 1, 2, 3]
    assert done[2] == specs[2].digest()


def test_journal_rejects_foreign_digest(tmp_path):
    specs = _specs(3, base_seed=6)
    digest = campaign_digest(specs)
    path = journal_path_for(tmp_path, digest)
    cache = ResultCache(str(tmp_path))
    supervise_campaign(specs, _ok, n_jobs=1, cache=cache, journal_path=path)
    # A different campaign (other base seed) must confirm nothing.
    other = campaign_digest(_specs(3, base_seed=7))
    assert CampaignJournal.read_done(path, other) == {}


def test_journal_tolerates_torn_trailing_line(tmp_path):
    specs = _specs(3, base_seed=6)
    digest = campaign_digest(specs)
    path = journal_path_for(tmp_path, digest)
    cache = ResultCache(str(tmp_path))
    supervise_campaign(specs, _ok, n_jobs=1, cache=cache, journal_path=path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"run_index": 99, "status": "do')  # SIGKILL mid-write
    done = CampaignJournal.read_done(path, digest)
    assert sorted(done) == [0, 1, 2]  # torn line ignored, rest intact


def test_journal_missing_file_reads_empty(tmp_path):
    assert CampaignJournal.read_done(tmp_path / "absent.jsonl", "x" * 32) == {}


def test_campaign_digest_moves_with_any_spec_change():
    a = campaign_digest(_specs(4, base_seed=0))
    b = campaign_digest(_specs(4, base_seed=1))
    c = campaign_digest(_specs(5, base_seed=0))
    assert len({a, b, c}) == 3


# ------------------------------------------------------------------- resume


def test_resume_without_journal_raises(tmp_path):
    specs = _specs(2, base_seed=6)
    path = journal_path_for(tmp_path, campaign_digest(specs))
    with pytest.raises(NoJournalError):
        supervise_campaign(
            specs, _ok, n_jobs=1, cache=ResultCache(str(tmp_path)),
            journal_path=path, resume=True,
        )


def test_resume_replays_journaled_runs(tmp_path):
    specs = _specs(4, base_seed=8)
    digest = campaign_digest(specs)
    path = journal_path_for(tmp_path, digest)
    cache = ResultCache(str(tmp_path))
    supervise_campaign(specs, _ok, n_jobs=1, cache=cache, journal_path=path)

    calls = []

    def counting(spec):
        calls.append(spec.run_index)
        return spec.seed * 2, None

    resumed = supervise_campaign(
        specs, counting, n_jobs=1, cache=cache,
        journal_path=path, resume=True,
    )
    assert calls == []  # nothing re-executed
    assert resumed.replayed == 4
    assert [r.result for r in resumed.records] == [s.seed * 2 for s in specs]


def test_resume_reexecutes_evicted_cache_entries(tmp_path):
    specs = _specs(4, base_seed=8)
    digest = campaign_digest(specs)
    path = journal_path_for(tmp_path, digest)
    cache = ResultCache(str(tmp_path))
    supervise_campaign(specs, _ok, n_jobs=1, cache=cache, journal_path=path)
    # The journal says run 1 finished, but its cache entry is gone.
    cache.path_for(specs[1].digest()).unlink()

    calls = []

    def counting(spec):
        calls.append(spec.run_index)
        return spec.seed * 2, None

    resumed = supervise_campaign(
        specs, counting, n_jobs=1, cache=cache,
        journal_path=path, resume=True,
    )
    assert calls == [1]  # only the evicted run re-executes
    assert resumed.replayed == 3
    assert [r.result for r in resumed.records] == [s.seed * 2 for s in specs]


# ------------------------------------------------------------------ ordering


def test_supervised_matches_engine_contract():
    specs = _specs(5, base_seed=11)
    streamed = []
    calls = []
    result = supervise_campaign(
        specs, _ok, n_jobs=1,
        on_record=lambda r: streamed.append(r.run_index),
        progress=lambda done, total: calls.append((done, total)),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3, 4]
    assert streamed == [0, 1, 2, 3, 4]
    assert calls == [(i, 5) for i in range(1, 6)]
