"""The campaign driver and the records, errors and knobs it shares.

Every campaign — node runs, cluster runs, batch schedules — is a list of
picklable specs (:mod:`repro.parallel.jobspec`), a module-level executor
that maps one spec to ``(result, faults-dict-or-None)``, and a function
that turns one finished repetition into its provenance record.
:func:`run_specs` is the one driver that runs such a campaign.  It owns
the rules every kind shares, written once:

* the worker count (:func:`resolve_jobs`) and the result cache;
* the crash-safe journal and ``--resume`` (resume needs the cache; a
  missing journal is an error unless ``resume_missing_ok``);
* provenance streamed in run-index order, plus the ``.meta.json``
  sidecar with the execution metadata;
* the ``campaign_started``/``campaign_finished`` telemetry bracket.

Its keyword-only execution options — ``provenance_path``, ``n_jobs``,
``use_cache``, ``cache_dir``, ``progress``, ``supervise``, ``resume``,
``resume_missing_ok`` and ``telemetry`` — are declared here and nowhere
else: the campaign functions, experiments, registry and CLI above it
forward them unchanged as ``**run_opts``.

Execution itself — ordering, timeouts, retry, pool health, journal lines —
is :func:`repro.parallel.supervisor.supervise_campaign`'s, and a
repetition that finally fails surfaces as :class:`CampaignRunError`
naming the run index, seed and spec digest (enough to replay it
serially); a worker pool that breaks for good surfaces as
:class:`WorkerPoolError` listing every in-flight repetition.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.parallel.jobspec import RunSpec, model_epoch

__all__ = [
    "RunRecord",
    "CampaignRunError",
    "WorkerPoolError",
    "resolve_jobs",
    "run_specs",
]

#: A worker maps one spec to ``(result, faults-dict-or-None)``.
Worker = Callable[[RunSpec], Tuple[object, Optional[dict]]]
#: Progress callbacks receive ``(completed, total)`` after every repetition.
ProgressFn = Callable[[int, int], None]


@dataclass
class RunRecord:
    """One merged repetition: the spec's identity plus its outcome."""

    run_index: int
    seed: int
    digest: str
    result: object
    faults: Optional[dict] = None
    cache_hit: bool = False


class CampaignRunError(RuntimeError):
    """One repetition failed; names the run so it can be replayed serially.

    When raised by the supervised layer, *attempts* carries the full retry
    history — one ``AttemptFailure`` per failed attempt, each with its error
    class and :func:`~repro.parallel.supervisor.classify_failure` verdict.
    """

    def __init__(
        self,
        run_index: int,
        seed: int,
        digest: str,
        cause: BaseException,
        *,
        attempts: Sequence[object] = (),
    ):
        self.run_index = run_index
        self.seed = seed
        self.digest = digest
        self.cause = cause
        self.attempts = tuple(attempts)
        history = ""
        if self.attempts:
            classes = ", ".join(
                f"{a.error}/{a.classification}" for a in self.attempts
            )
            history = f" after {len(self.attempts)} attempt(s) [{classes}]"
        super().__init__(
            f"campaign run {run_index} failed{history} (seed {seed}, spec "
            f"digest {digest}): {cause!r} — replay with n_jobs=1 and this "
            f"seed to debug"
        )


class WorkerPoolError(RuntimeError):
    """The pool itself broke (a worker process died mid-run).

    *pool_size* and *survivors* record the pool's account at failure time:
    how many worker processes it was built with and how many were still
    alive when the supervisor gave up.
    """

    def __init__(
        self,
        in_flight: Sequence[RunSpec],
        cause: BaseException,
        *,
        pool_size: Optional[int] = None,
        survivors: Optional[int] = None,
    ):
        self.in_flight = list(in_flight)
        self.cause = cause
        self.pool_size = pool_size
        self.survivors = survivors
        runs = ", ".join(
            f"run {s.run_index} (seed {s.seed}, digest {s.digest()})"
            for s in self.in_flight
        ) or "none"
        account = ""
        if pool_size is not None:
            alive = "?" if survivors is None else survivors
            account = f" [{alive}/{pool_size} workers surviving]"
        super().__init__(
            f"worker process died ({cause!r}){account}; in-flight "
            f"repetitions: {runs}"
        )


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` argument: None → ``os.cpu_count()``, floor 1."""
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return n_jobs


def run_specs(
    specs: Sequence[RunSpec],
    execute: Worker,
    to_record: Callable[[RunRecord], Dict[str, object]],
    on_result: Optional[Callable[[RunRecord, object], None]] = None,
    *,
    label: str,
    regime: str,
    base_seed: int = 0,
    provenance_path: Optional[str] = None,
    n_jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    supervise=None,
    resume: bool = False,
    resume_missing_ok: bool = False,
    telemetry=None,
) -> Dict[str, object]:
    """Run one campaign of *specs* under supervision.

    *execute* is the kind's module-level executor (it crosses the process
    boundary by reference).  *to_record* builds one repetition's provenance
    record; records are streamed to *provenance_path* in run-index order,
    so a partial campaign still leaves an auditable trail, and a
    ``<path>.meta.json`` sidecar records how the campaign was executed
    (worker count, cache hits, retries, holes, resume).  *on_result*, when
    given, is called as ``on_result(record, telemetry)`` for every record
    of a campaign with a *telemetry* sink, before its provenance line — the
    hook a kind uses for its own counters.

    With *use_cache*, finished runs are looked up in and stored to the
    content-addressed result cache, and completion is journaled to
    ``<cache>/journal/<campaign-digest>.jsonl`` so a crashed campaign can
    be *resumed*: journal-confirmed indices replay from the cache and only
    the remainder executes, byte-identical to an uninterrupted run.
    *resume* without the cache raises
    :class:`~repro.parallel.supervisor.NoJournalError`, and so does
    *resume* with no matching journal unless *resume_missing_ok* (the
    lenient mode multi-campaign drivers use, so campaigns a crashed
    invocation never reached simply start fresh).

    *label* is the campaign's ``bench`` name in telemetry and the sidecar.
    Returns the keyword arguments every ``*CampaignResult`` type shares:
    ``label``, ``regime``, ``results`` (holes omitted), ``jobs``,
    ``cache_hits``, ``holes``, ``retries`` and ``replayed``.
    """
    from repro.obs import provenance
    from repro.parallel.cache import ResultCache
    from repro.parallel.supervisor import (
        NoJournalError,
        campaign_digest,
        journal_path_for,
        supervise_campaign,
    )

    if not specs:
        raise ValueError("n_runs must be >= 1")
    n_runs = len(specs)
    jobs = resolve_jobs(n_jobs)
    cache = (
        ResultCache(
            cache_dir,
            metrics=telemetry.registry if telemetry is not None else None,
        )
        if use_cache
        else None
    )
    spec_digests = digest = journal_path = None
    if cache is not None:
        # Each spec is digested once: the campaign digest, the cache keys,
        # the journal lines, holes and errors all share this list.
        spec_digests = [s.digest() for s in specs]
        digest = campaign_digest(specs, spec_digests)
        journal_path = journal_path_for(cache.root, digest)
        if resume and resume_missing_ok and not journal_path.is_file():
            resume = False  # nothing to replay; run this campaign fresh
    elif resume:
        raise NoJournalError(
            "<caching disabled> — --resume replays finished runs from the "
            "result cache, so it cannot be combined with --no-cache"
        )
    started_at = time.time()

    prov_fh = open(provenance_path, "w", encoding="utf-8") if provenance_path else None

    def on_record(record: RunRecord) -> None:
        if on_result is not None and telemetry is not None:
            on_result(record, telemetry)
        if prov_fh is not None:
            provenance.append_record(prov_fh, to_record(record))

    if telemetry is not None:
        telemetry.campaign_started(
            label=label, regime=regime, n_runs=n_runs, jobs=jobs
        )
    try:
        supervised = supervise_campaign(
            specs,
            execute,
            n_jobs=jobs,
            cache=cache,
            config=supervise,
            progress=progress,
            on_record=on_record,
            journal_path=journal_path,
            digest=digest,
            spec_digests=spec_digests,
            resume=resume,
            telemetry=telemetry,
        )
    finally:
        if prov_fh is not None:
            prov_fh.close()
    if telemetry is not None:
        telemetry.campaign_finished(replayed=supervised.replayed)

    records = supervised.records
    cache_hits = sum(1 for r in records if r.cache_hit)
    if provenance_path:
        meta = provenance.campaign_record(
            bench=label,
            regime=regime,
            n_runs=n_runs,
            base_seed=base_seed,
            jobs=jobs,
            cache_hits=cache_hits,
            cache_misses=n_runs - cache_hits - len(supervised.holes),
            started_at=started_at,
            finished_at=time.time(),
            retries=supervised.retries,
            timeouts=supervised.timeouts,
            pool_shrinks=supervised.pool_shrinks,
            holes=[h.as_dict() for h in supervised.holes],
            resumed=resume,
            replayed=supervised.replayed,
            model_epoch=model_epoch(),
        )
        with open(provenance_path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return dict(
        label=label,
        regime=regime,
        results=[r.result for r in records],
        jobs=jobs,
        cache_hits=cache_hits,
        holes=supervised.hole_indices,
        retries=supervised.retries,
        replayed=supervised.replayed,
    )
