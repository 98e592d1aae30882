"""Parallel campaign execution: deterministic fan-out + result caching.

The paper's unit of measurement is 1000 repetitions per configuration; each
repetition's RNG streams derive from ``_derive_seed(base_seed, run_index)``
alone, so repetitions are embarrassingly parallel.  This package describes
each one as a picklable content-addressed spec
(:mod:`repro.parallel.jobspec`), caches finished runs on disk
(:mod:`repro.parallel.cache`), and runs every campaign — node, cluster or
batch — through one driver, :func:`run_specs` (:mod:`repro.parallel.engine`),
so all three kinds share one cache, journal, resume and provenance contract.

Execution is supervised (:mod:`repro.parallel.supervisor`): run-index-order
merging across a process pool, per-run wall-clock timeouts, classified
retry with seeded exponential backoff, graceful pool degradation, partial
salvage with explicit holes, and crash-safe journal/resume — the harness
fault tolerance the 1000-repetition campaigns need to be trustworthy.

The determinism contract — parallel results byte-identical to serial — is
enforced by ``tests/test_parallel_engine.py`` and by the CI determinism
gate, not merely promised here.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.cache": (
        "CACHE_ENV_VAR", "DEFAULT_CACHE_DIR", "QUARANTINE_DIR", "CacheInfo",
        "ResultCache",
    ),
    "repro.parallel.engine": (
        "CampaignRunError", "RunRecord", "WorkerPoolError", "resolve_jobs",
        "run_specs",
    ),
    "repro.parallel.jobspec": (
        "BatchRunSpec", "ClusterRunSpec", "RunSpec", "machine_fingerprint",
        "stable_digest",
    ),
    "repro.parallel.supervisor": (
        "AttemptFailure", "CampaignJournal", "NoJournalError", "RetryPolicy",
        "RunHole", "RunTimeoutError", "SupervisedResult", "SupervisorConfig",
        "backoff_delay", "backoff_schedule", "campaign_digest",
        "classify_failure", "journal_path_for", "supervise_campaign",
    ),
})
