"""Run provenance: one JSONL record per simulated execution.

The paper reports statistics over 1000 executions; a claim like "HPL cuts
context switches in half" is only auditable if every one of those runs is
reconstructible.  :func:`run_record` captures the full identity of a run —
seed, kernel-config digest, benchmark, regime — alongside its headline
results and (optionally) the counter/latency breakdowns, as one flat JSON
object.  The campaign runner streams these to a ``.jsonl`` file, one line
per run; :func:`read_records` loads them back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "config_digest",
    "run_record",
    "cluster_run_record",
    "batch_run_record",
    "campaign_record",
    "append_record",
    "read_records",
]

#: Bump when a field is renamed/removed; additions are backwards-compatible.
PROVENANCE_SCHEMA_VERSION = 1


def config_digest(config) -> str:
    """Stable 16-hex-char digest of a :class:`KernelConfig` (or any
    dataclass): sha256 over its sorted-key JSON form.  Two runs with equal
    digests used byte-identical kernel configurations."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_record(
    result,
    *,
    bench: str,
    regime: str,
    run_index: int,
    seed: int,
    variant: str,
    config,
    counters: Optional[Dict] = None,
    latency: Optional[Dict] = None,
    faults: Optional[Dict] = None,
) -> Dict[str, object]:
    """Build the provenance dict for one finished run.

    *result* is the run's :class:`~repro.apps.mpiexec.JobResult`; *config*
    the :class:`~repro.kernel.kernel.KernelConfig` actually booted.
    *counters* / *latency* attach the optional observability breakdowns
    (``perf.class_snapshot()`` output, ``LatencySummary.as_dict()``).
    *faults* attaches the fault-plan digest and recovery metrics of a
    faulted run (absent entirely on fault-free runs, keeping their records
    byte-stable across versions).
    """
    record: Dict[str, object] = {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "bench": bench,
        "regime": regime,
        "run_index": run_index,
        "seed": seed,
        "variant": variant,
        "config_digest": config_digest(config),
        "nprocs": result.nprocs,
        "mode": result.mode,
        "app_time_s": result.app_time_s,
        "wall_time_us": result.wall_time,
        "context_switches": result.context_switches,
        "cpu_migrations": result.cpu_migrations,
        "rank_migrations": result.rank_migrations,
        "rank_involuntary_switches": result.rank_involuntary_switches,
    }
    if counters is not None:
        record["counters"] = counters
    if latency is not None:
        record["latency"] = latency
    if faults is not None:
        record["faults"] = faults
    return record


def cluster_run_record(
    result,
    *,
    bench: str,
    regime: str,
    run_index: int,
    seed: int,
    faults: Optional[Dict] = None,
) -> Dict[str, object]:
    """Build the provenance dict for one finished *multi-node* run.

    *result* is a :class:`~repro.cluster.multinode.ClusterResult`.  Like
    :func:`run_record`, the ``faults`` object (per-node plan digests plus
    the cluster's detection/recovery accounting) is attached only on
    faulted runs, so fault-free cluster records stay byte-stable."""
    record: Dict[str, object] = {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "kind": "cluster",
        "bench": bench,
        "regime": regime,
        "run_index": run_index,
        "seed": seed,
        "n_nodes": result.n_nodes,
        "nprocs_per_node": result.nprocs_per_node,
        "n_spares": result.n_spares,
        "surviving_nodes": result.surviving_nodes,
        "app_time_s": result.app_time_s,
        "node_migrations": list(result.node_migrations),
        "node_involuntary_switches": list(result.node_involuntary_switches),
    }
    if faults is not None:
        record["faults"] = faults
    return record


def batch_run_record(
    result,
    *,
    bench: str,
    run_index: int,
    seed: int,
) -> Dict[str, object]:
    """Build the provenance dict for one finished *batch-schedule* run.

    *result* is a :class:`~repro.batch.dispatcher.BatchResult`: one whole
    schedule (trace x policy x pool), so the record carries the schedule's
    content digest plus its aggregate metrics rather than per-job rows —
    the per-job detail stays reconstructible from (workload, seed, policy)
    by determinism.  Everything here is a pure function of the spec, so
    batch provenance obeys the same byte-identity contract as node-level
    and cluster records (the CI batch determinism leg diffs exactly this).

    Like :func:`run_record`, the ``faults`` object (plan digest plus the
    requeue/preempt/drain accounting) is attached only on faulted runs, so
    fault-free batch records stay byte-stable across versions.
    """
    record = {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "kind": "batch",
        "bench": bench,
        "regime": result.regime,
        "run_index": run_index,
        "seed": seed,
        "policy": result.policy,
        "policy_params": dict(result.policy_params),
        "runtime_model": result.runtime_model,
        "pool_nodes": result.pool_nodes,
        "n_jobs": result.n_jobs,
        "schedule_digest": result.schedule_digest(),
        "makespan_us": result.makespan_us,
        "mean_wait_us": result.mean_wait_us,
        "max_wait_us": result.max_wait_us,
        "mean_bsld": result.mean_bsld,
        "max_bsld": result.max_bsld,
        "utilization": result.utilization,
        "backfills": result.backfills,
        "colocations": result.colocations,
        "kills": result.kills,
        "queue_depth_peak": result.queue_depth_peak,
        "head_delays": result.head_delays,
    }
    if result.fault_plan_digest is not None:
        record["faults"] = {
            "plan_digest": result.fault_plan_digest,
            "requeues": result.requeues,
            "preempts": result.preempts,
            "drains": result.drains,
            "node_fails": result.node_fails,
            "failed": result.failed,
            "node_lost_us": result.node_lost_us,
        }
    return record


def campaign_record(
    *,
    bench: str,
    regime: str,
    n_runs: int,
    base_seed: int,
    jobs: int,
    cache_hits: int,
    cache_misses: int,
    started_at: float,
    finished_at: float,
    retries: int = 0,
    timeouts: int = 0,
    pool_shrinks: int = 0,
    holes: Optional[List[Dict[str, object]]] = None,
    resumed: bool = False,
    replayed: int = 0,
    model_epoch: str,
) -> Dict[str, object]:
    """Execution metadata for one whole campaign (the ``.meta.json``
    sidecar next to a provenance JSONL).

    ``model_epoch`` is :func:`repro.parallel.jobspec.model_epoch` of the
    code that ran the campaign, the hash every result-cache key and the
    journal carry.

    Kept *out* of the per-run records on purpose: worker count, cache
    hits, retries, holes, resume accounting and wall-clock timestamps
    describe how the campaign was executed, not what it simulated, so the
    JSONL stays byte-identical between ``--jobs 1`` and ``--jobs N``,
    between cold and warm caches, and between uninterrupted and
    crash-resumed campaigns — the invariant the CI determinism and chaos
    gates diff for.

    ``holes`` lists every repetition salvaged away under ``allow_partial``
    — run index, seed, spec digest, and the full per-attempt failure
    history — so a partial campaign's gaps are auditable, never silent.
    """
    import time

    return {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "record": "campaign",
        "bench": bench,
        "regime": regime,
        "n_runs": n_runs,
        "base_seed": base_seed,
        "jobs": jobs,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "retries": retries,
        "timeouts": timeouts,
        "pool_shrinks": pool_shrinks,
        "holes": list(holes or []),
        "resumed": resumed,
        "replayed": replayed,
        "model_epoch": model_epoch,
        "started_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime(started_at)
        ),
        "finished_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime(finished_at)
        ),
        "duration_s": round(finished_at - started_at, 3),
    }


def append_record(fh, record: Dict[str, object]) -> None:
    """Write one record to an open text stream as a JSONL line."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")
    fh.flush()


def read_records(path: str) -> List[Dict[str, object]]:
    """Load every record from a provenance ``.jsonl`` file."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
