"""Batch workload model: the job trace a cluster dispatcher schedules.

The node-level simulator answers "how long does one job take on one set of
nodes"; the batch layer asks the question above it: given a *stream* of
jobs arriving over hours, which allocation policy gets them through a fixed
node pool best?  This module provides the stream: a seeded, fully
deterministic :func:`generate_trace` in the spirit of the workload models
batch-simulation frameworks ship (accasim's job dispatcher, the Feitelson
workload archive) — Poisson arrivals, a skewed node-count distribution, and
user walltime *estimates* that over-state the real demand by a seeded
log-normal factor, the way real trace estimates do.

Everything here is plain frozen data: a :class:`BatchJob` crosses process
boundaries by pickling, and its :meth:`~BatchJob.shape_fingerprint` names
the node-level simulation it induces (program x nodes x ranks x seed), which
is exactly the memoization key the runtime model uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.apps.spmd import Program
from repro.sim.rng import RngStreams
from repro.units import msecs

__all__ = ["BatchJob", "WorkloadConfig", "generate_trace", "job_ideal_us"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a generated job trace (all content, no behaviour).

    The config is part of every :class:`~repro.parallel.jobspec.BatchRunSpec`
    fingerprint, so two campaigns with equal configs and seeds replay the
    same trace byte for byte.
    """

    #: Number of jobs in the trace.
    n_jobs: int = 16
    #: Mean exponential interarrival gap, µs.
    interarrival_us: int = 8_000
    #: Jobs request 1..max_nodes nodes (skewed toward small jobs).
    max_nodes: int = 2
    #: Ranks per allocated node (every node runs this many MPI ranks).
    nprocs_per_node: int = 4
    #: Per-job compute size: n_iters uniform in [min_iters, max_iters].
    min_iters: int = 3
    max_iters: int = 6
    #: Work per iteration, µs.
    iter_work_us: int = 4_000
    #: Per-rank compute jitter inside the node-level simulation.
    jitter_sigma: float = 0.02
    #: Walltime-estimate error: estimates are ideal * margin * e^|sigma.z|,
    #: so they are conservative upper bounds the way real traces' are.
    estimate_sigma: float = 0.35
    estimate_margin: float = 4.0
    #: Internode collective latency for multi-node jobs, µs.
    internode_latency: int = 30

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.interarrival_us < 1:
            raise ValueError("interarrival_us must be >= 1")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.nprocs_per_node < 1:
            raise ValueError("nprocs_per_node must be >= 1")
        if not 1 <= self.min_iters <= self.max_iters:
            raise ValueError("need 1 <= min_iters <= max_iters")
        if self.iter_work_us < 1:
            raise ValueError("iter_work_us must be >= 1")
        if self.estimate_sigma < 0:
            raise ValueError("estimate_sigma cannot be negative")
        if self.estimate_margin < 1.0:
            raise ValueError("estimate_margin must be >= 1 (estimates are "
                             "upper bounds; see DESIGN SS13)")


#: Program pieces shared by every generated job (small on purpose: the
#: batch layer simulates many jobs per repetition).
_STARTUP_WORK = msecs(1)
_INIT_OPS = 2
_INIT_WAIT_MEAN = 300
_FINALIZE_OPS = 1
_SYNC_LATENCY = 20


def job_ideal_us(n_iters: int, config: WorkloadConfig) -> int:
    """The job's noise-free service demand: pure compute plus the mean
    blocking-init waits.  Estimates and the analytic runtime model are both
    anchored here."""
    return (
        _STARTUP_WORK
        + n_iters * config.iter_work_us
        + _INIT_OPS * _INIT_WAIT_MEAN
    )


@dataclass(frozen=True)
class BatchJob:
    """One job in the trace: arrival, shape, estimate, and its own seed.

    ``estimate`` is the *user-declared* walltime bound the dispatcher
    schedules against; the actual runtime comes from the node-level
    simulation (or the analytic model) and is unknown to the policy until
    the job finishes — the information asymmetry every real batch scheduler
    lives with.  Rigid policies enforce the estimate as a hard walltime
    limit (the job is killed at ``start + estimate``), which is what makes
    EASY's reservation guarantee provable.
    """

    job_id: int
    #: Arrival instant, µs.
    submit: int
    #: Dedicated (or co-located) nodes requested.
    n_nodes: int
    #: MPI ranks per node.
    nprocs_per_node: int
    #: Compute iterations (sizes the per-job SPMD program).
    n_iters: int
    #: Declared walltime bound, µs (conservative: >= the ideal demand).
    estimate: int
    #: The node-level simulation seed for this job.
    seed: int
    #: Work per iteration, µs (copied from the workload config).
    iter_work_us: int = 4_000
    #: Per-rank compute jitter sigma.
    jitter_sigma: float = 0.02

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.estimate < 1:
            raise ValueError("estimate must be >= 1")
        if self.submit < 0:
            raise ValueError("submit cannot be negative")

    def program(self) -> Program:
        """The per-rank SPMD program this job runs on its nodes."""
        return Program.iterative(
            name=f"job{self.job_id}",
            n_iters=self.n_iters,
            iter_work=self.iter_work_us,
            jitter_sigma=self.jitter_sigma,
            sync_latency=_SYNC_LATENCY,
            init_ops=_INIT_OPS,
            init_wait_mean=_INIT_WAIT_MEAN,
            startup_work=_STARTUP_WORK,
            finalize_ops=_FINALIZE_OPS,
        )

    @property
    def ideal_us(self) -> int:
        """Noise-free service demand, µs."""
        return (
            _STARTUP_WORK
            + self.n_iters * self.iter_work_us
            + _INIT_OPS * _INIT_WAIT_MEAN
        )

    def shape_fingerprint(self, regime: str, internode_latency: int) -> Dict[str, object]:
        """Identity of the node-level simulation this job induces.

        Deliberately excludes ``job_id``, ``submit`` and ``estimate``:
        two jobs with equal shapes simulate the same microseconds, so the
        runtime model memoizes on this (the batch analogue of the result
        cache's :meth:`RunSpec.digest` contract)."""
        return {
            "n_nodes": self.n_nodes,
            "nprocs_per_node": self.nprocs_per_node,
            "n_iters": self.n_iters,
            "iter_work_us": self.iter_work_us,
            "jitter_sigma": self.jitter_sigma,
            "seed": self.seed,
            "regime": regime,
            "internode_latency": internode_latency,
        }

    def digest(self) -> str:
        """Stable 16-hex content key for this job (shape + trace position).

        Computed once per instance and kept in the instance ``__dict__``
        under ``_digest``, outside the dataclass fields, so ``==``,
        ``hash``, :func:`dataclasses.asdict` and the spec digests built on
        it never see it."""
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        from repro.parallel.jobspec import stable_digest

        cached = self.__dict__["_digest"] = stable_digest(
            {
                "job_id": self.job_id,
                "submit": self.submit,
                "n_nodes": self.n_nodes,
                "nprocs_per_node": self.nprocs_per_node,
                "n_iters": self.n_iters,
                "iter_work_us": self.iter_work_us,
                "jitter_sigma": self.jitter_sigma,
                "estimate": self.estimate,
                "seed": self.seed,
            },
            length=16,
        )
        return cached


def generate_trace(config: WorkloadConfig, seed: int) -> Tuple[BatchJob, ...]:
    """Generate the job trace for *(config, seed)* — always the same one.

    Named RNG streams keep the draws independent under reconfiguration
    (common-random-numbers discipline, same as the node layer): changing
    the estimate model does not move anyone's arrival instant.
    """
    rng = RngStreams(seed * 1_000_003 + 0xBA7C)
    jobs = []
    t = 0
    for job_id in range(config.n_jobs):
        t += max(1, int(rng.exponential("batch.arrival", config.interarrival_us)))
        # Node counts skew small: P(n) ~ 1/n over 1..max_nodes.
        weights = [1.0 / n for n in range(1, config.max_nodes + 1)]
        total = sum(weights)
        u = rng.random("batch.width") * total
        n_nodes = config.max_nodes
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                n_nodes = i + 1
                break
        n_iters = rng.integers("batch.iters", config.min_iters, config.max_iters + 1)
        ideal = job_ideal_us(n_iters, config)
        # |z| makes the error factor >= 1: estimates over-state, never
        # under-state, so rigid policies' walltime kills stay rare.
        z = abs(float(rng.stream("batch.estimate").standard_normal()))
        estimate = int(ideal * config.estimate_margin
                       * math.exp(config.estimate_sigma * z))
        jobs.append(
            BatchJob(
                job_id=job_id,
                submit=t,
                n_nodes=n_nodes,
                nprocs_per_node=config.nprocs_per_node,
                n_iters=n_iters,
                estimate=estimate,
                seed=(seed * 9_176_113 + job_id * 7_919 + 29) & 0x7FFFFFFF,
                iter_work_us=config.iter_work_us,
                jitter_sigma=config.jitter_sigma,
            )
        )
    return tuple(jobs)
