"""Batch campaigns: batch schedules as first-class campaign cells.

One repetition here is one whole *schedule*: a seeded job trace replayed
against a node pool under one allocation policy.  Repetitions differ only
by derived seed (fresh trace, fresh per-job node-level seeds), so they are
embarrassingly parallel exactly like node-level repetitions — which means
the entire supervised fabric applies unchanged: process-pool fan-out,
content-addressed caching on :meth:`BatchRunSpec.digest`, crash-safe
journal/resume, streaming provenance (``kind: "batch"`` records), and
telemetry (``batch.backfills`` / ``batch.colocations`` / ``batch.kills``
counters, ``batch.queue_depth`` high-water gauge).

The byte-determinism contract carries over too: a batch campaign's
provenance JSONL is identical between ``--jobs 1`` and ``--jobs N`` and
across cache-warm resume — CI's batch determinism leg diffs exactly this.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.batch.dispatcher import BatchResult, simulate_batch
from repro.batch.runtime import scratch_pricing_store
from repro.batch.workload import WorkloadConfig, generate_trace

__all__ = [
    "BatchCampaignResult",
    "build_batch_specs",
    "run_batch_campaign",
]


def _execute_batch_spec(
    spec, *, pricing_store: Optional[str] = None
) -> Tuple[BatchResult, Optional[Dict]]:
    """Execute one batch repetition from a picklable :class:`BatchRunSpec`.

    The batch analogue of ``_execute_spec``: module-level, a pure function
    of the spec's content.  The trace is regenerated from (workload, seed)
    — traces never cross the process boundary — and the second element of
    the return pair (the supervisor's ``faults`` slot) is always None:
    walltime kills are policy behaviour, not injected faults, and they are
    accounted in the result itself.  *pricing_store* is the campaign's
    shared sim-price directory (None: prices stay in this process).
    """
    trace = generate_trace(spec.workload, spec.seed)
    result = simulate_batch(
        trace,
        spec.pool_nodes,
        spec.policy,
        policy_params=(
            dict(spec.policy_params) if spec.policy_params is not None else None
        ),
        regime=spec.regime,
        runtime_model=spec.runtime_model,
        internode_latency=spec.workload.internode_latency,
        fault_plan=spec.fault_plan,
        job_retries=spec.job_retries,
        restart_cost_us=spec.restart_cost_us,
        placement=spec.placement,
        pricing_store=pricing_store,
    )
    return result, None


def _count_schedule(record, telemetry) -> None:
    """Feed one schedule's traffic to the ``batch.*`` counters and gauge,
    plus a ``batch_schedule`` event when a fault plan was armed."""
    reg = telemetry.registry
    res = record.result
    reg.counter("batch.backfills").inc(res.backfills)
    reg.counter("batch.colocations").inc(res.colocations)
    reg.counter("batch.kills").inc(res.kills)
    reg.gauge("batch.queue_depth").set(res.queue_depth_peak)
    if res.fault_plan_digest is not None:
        reg.counter("batch.requeues").inc(res.requeues)
        reg.counter("batch.preempts").inc(res.preempts)
        reg.counter("batch.drains").inc(res.drains)
        reg.counter("batch.node_lost_s").inc(res.node_lost_us / 1e6)
        telemetry.batch_schedule(
            run_index=record.run_index,
            requeues=res.requeues,
            preempts=res.preempts,
            drains=res.drains,
            node_fails=res.node_fails,
            failed=res.failed,
            kills=res.kills,
            node_lost_s=round(res.node_lost_us / 1e6, 6),
        )


@dataclass
class BatchCampaignResult:
    """N repetitions of one (policy, regime, pool) batch configuration."""

    label: str
    policy: str
    regime: str
    results: List[BatchResult]
    jobs: int = 1
    cache_hits: int = 0
    holes: List[int] = field(default_factory=list)
    retries: int = 0
    replayed: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.results)

    def mean_waits_us(self) -> List[float]:
        return [r.mean_wait_us for r in self.results]

    def mean_bslds(self) -> List[float]:
        return [r.mean_bsld for r in self.results]

    def makespans_us(self) -> List[float]:
        return [r.makespan_us for r in self.results]

    def utilizations(self) -> List[float]:
        return [r.utilization for r in self.results]

    def total_backfills(self) -> int:
        return sum(r.backfills for r in self.results)

    def total_colocations(self) -> int:
        return sum(r.colocations for r in self.results)

    def total_kills(self) -> int:
        return sum(r.kills for r in self.results)

    def total_requeues(self) -> int:
        return sum(r.requeues for r in self.results)

    def total_preempts(self) -> int:
        return sum(r.preempts for r in self.results)

    def total_failed(self) -> int:
        return sum(r.failed for r in self.results)

    def total_node_lost_us(self) -> float:
        return sum(r.node_lost_us for r in self.results)


def build_batch_specs(
    policy: str,
    pool_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    workload: Optional[WorkloadConfig] = None,
    runtime_model: str = "sim",
    policy_params: Optional[Dict[str, object]] = None,
    fault_plan: Optional["FaultPlan"] = None,
    job_retries: int = 2,
    restart_cost_us: int = 2_000,
    placement: str = "lowest",
) -> List["BatchRunSpec"]:
    """Materialize a batch campaign's repetitions as picklable specs.

    Mirrors ``build_campaign_specs``: seeds derive per run index, and the
    policy name is validated here (fail fast in the parent, not in a
    worker), as are the workload/pool shapes the dispatcher would reject —
    including the fault plan's universe and node indices.  Every repetition
    replays the *same* fault timeline (common-random-numbers discipline:
    repetitions differ by trace seed, never by what broke).
    """
    from repro.batch.dispatcher import PLACEMENTS, validate_batch_fault_plan
    from repro.batch.policies import make_policy
    from repro.batch.runtime import RUNTIME_MODELS
    from repro.experiments.runner import CLUSTER_REGIMES, _derive_seed
    from repro.parallel.jobspec import BatchRunSpec

    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if regime not in CLUSTER_REGIMES:
        raise ValueError(
            f"unknown batch regime {regime!r}; choose from {CLUSTER_REGIMES}"
        )
    if runtime_model not in RUNTIME_MODELS:
        raise ValueError(
            f"unknown runtime model {runtime_model!r}; choose from {RUNTIME_MODELS}"
        )
    make_policy(policy, **(policy_params or {}))  # validate name + params
    workload = workload if workload is not None else WorkloadConfig()
    if workload.max_nodes > pool_nodes:
        raise ValueError(
            f"workload generates up to {workload.max_nodes}-node jobs but the "
            f"pool has only {pool_nodes} nodes"
        )
    if job_retries < 0:
        raise ValueError("job_retries cannot be negative")
    if restart_cost_us < 0:
        raise ValueError("restart_cost_us cannot be negative")
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; choose from {PLACEMENTS}"
        )
    if fault_plan is not None:
        validate_batch_fault_plan(fault_plan, pool_nodes)
    params_tuple = (
        tuple(sorted(policy_params.items())) if policy_params else None
    )
    return [
        BatchRunSpec(
            run_index=i,
            seed=_derive_seed(base_seed, i),
            policy=policy,
            pool_nodes=pool_nodes,
            regime=regime,
            workload=workload,
            runtime_model=runtime_model,
            policy_params=params_tuple,
            fault_plan=fault_plan,
            job_retries=job_retries,
            restart_cost_us=restart_cost_us,
            placement=placement,
        )
        for i in range(n_runs)
    ]


def run_batch_campaign(
    policy: str,
    pool_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    workload: Optional[WorkloadConfig] = None,
    runtime_model: str = "sim",
    policy_params: Optional[Dict[str, object]] = None,
    fault_plan: Optional["FaultPlan"] = None,
    job_retries: int = 2,
    restart_cost_us: int = 2_000,
    placement: str = "lowest",
    label: str = "",
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    **run_opts,
) -> BatchCampaignResult:
    """Run *n_runs* independent batch-schedule repetitions.

    The batch analogue of ``run_campaign`` / ``run_cluster_campaign``, run
    by the same driver (:func:`repro.parallel.run_specs`), so every
    invariant that holds there holds here: results and provenance
    byte-identical at any ``--jobs``, cache soundness, journal/resume,
    auditable holes.  Provenance records use
    :func:`~repro.obs.provenance.batch_run_record` (``kind: "batch"``);
    each record additionally bumps the ``batch.backfills`` /
    ``batch.colocations`` / ``batch.kills`` telemetry counters and the
    ``batch.queue_depth`` gauge (whose high-water mark is the deepest queue
    any repetition saw), so the batch layer's scheduling traffic shows up
    in the metrics snapshot next to cache and retry counts.  *run_opts*
    are the driver's execution options, forwarded unchanged; *use_cache*
    and *cache_dir* are named here only because this function reads them
    too.

    With *use_cache* and the sim runtime model, job prices are also
    persisted in the cache root's ``pricing/`` store, which every worker
    reads and writes, so each job shape is simulated once per cache (and
    model source) rather than once per worker process.  A pooled
    (``n_jobs > 1``) sim campaign without the cache shares the process's
    :func:`~repro.batch.runtime.scratch_pricing_store` the same way; a
    serial one keeps prices in memory only.  Prices are pure functions of
    the shape, so results are identical either way; the result cache's
    hit/miss accounting never sees them.
    """
    from repro.obs.provenance import batch_run_record
    from repro.parallel.cache import PRICING_DIR, cache_root
    from repro.parallel.engine import resolve_jobs, run_specs

    specs = build_batch_specs(
        policy,
        pool_nodes,
        regime,
        n_runs,
        base_seed=base_seed,
        workload=workload,
        runtime_model=runtime_model,
        policy_params=policy_params,
        fault_plan=fault_plan,
        job_retries=job_retries,
        restart_cost_us=restart_cost_us,
        placement=placement,
    )
    bench = label or f"batch-{policy}"
    execute = _execute_batch_spec
    if runtime_model == "sim":
        store = None
        if use_cache:
            store = str(cache_root(cache_dir) / PRICING_DIR)
        elif resolve_jobs(run_opts.get("n_jobs", 1)) > 1:
            store = scratch_pricing_store()
        if store is not None:
            execute = functools.partial(_execute_batch_spec, pricing_store=store)

    def to_record(record) -> Dict[str, object]:
        return batch_run_record(
            record.result,
            bench=bench,
            run_index=record.run_index,
            seed=record.seed,
        )

    return BatchCampaignResult(
        policy=policy,
        **run_specs(
            specs,
            execute,
            to_record,
            _count_schedule,
            label=bench,
            regime=regime,
            base_seed=base_seed,
            use_cache=use_cache,
            cache_dir=cache_dir,
            **run_opts,
        ),
    )
