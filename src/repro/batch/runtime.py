"""Job runtime models: where the two scheduling levels actually couple.

A batch policy only ever sees a job's *estimate*; how long the job really
holds its nodes is the node-level scheduler's business.  Two models:

``sim``
    The real thing — every distinct job shape is handed to
    :func:`repro.cluster.multinode.run_cluster_job` and simulated on its
    own co-simulated nodes under the campaign's regime (stock / hpl / rt),
    noise daemons, collectives and all.  This is the two-level coupling of
    Eleliemy et al. (arXiv:1811.01344): the batch layer's packing decisions
    are priced by the application-level scheduler's actual behaviour, so
    "does HPL's noise-immunity survive the batch layer?" is answerable.

``analytic``
    A calibrated closed form for tests and property-based exploration: the
    job's ideal demand dilated by a regime-dependent log-normal overhead
    factor drawn from the job's own seed.  Orders of magnitude faster,
    same determinism contract.

Both are pure functions of ``(job shape, regime)``, so both share one
in-process price memo and a job is priced once per process however many
policies schedule it or times it restarts.  The sim model keys it on
:meth:`BatchJob.shape_fingerprint` because two equal shapes simulate the
same microseconds; the analytic model on what its draw reads,
``("analytic", seed, ideal_us, regime)``.  The sim model has a second tier:
when a campaign passes a *pricing store* (the ``pricing/`` directory of its
result-cache root), one plain-text integer per shape on disk, keyed by the
shape digest and :func:`~repro.parallel.jobspec.model_epoch`, so every
campaign and every pool worker sharing the cache simulates each shape once
per model source.  A pooled campaign without a result cache gets the same
tier from :func:`scratch_pricing_store`, a throwaway directory private to
the command's process.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.batch.workload import BatchJob
from repro.sim.rng import RngStreams

__all__ = [
    "RUNTIME_MODELS",
    "base_runtime_us",
    "clear_runtime_memo",
    "scratch_pricing_store",
]

#: Accepted runtime-model names.
RUNTIME_MODELS = ("sim", "analytic")

#: Regime -> (mean fractional overhead, log-normal sigma) for the analytic
#: model, calibrated loosely against small sim-model runs: stock carries
#: both more overhead and far more variance than HPL, with RT in between —
#: the paper's Table II shape in two numbers.
_ANALYTIC_OVERHEAD: Dict[str, tuple] = {
    "stock": (0.55, 0.20),
    "hpl": (0.22, 0.04),
    "rt": (0.30, 0.08),
}

#: Process-wide memo of job prices under both models: sim prices keyed by
#: shape digest (a hex string), analytic prices by a tuple led by
#: ``"analytic"``, so the two never collide.  Values are pure functions of
#: the key, so sharing the memo across repetitions (and across policies
#: scheduling the same trace) never changes a result — it only skips
#: identical pricing.  Bounded LRU: dict insertion order doubles as recency
#: (hits re-insert their key), and crossing the cap evicts oldest-first, so
#: a long campaign that overflows the cap keeps its hot working set instead
#: of re-pricing everything.
_PRICE_MEMO: Dict[object, int] = {}
_PRICE_MEMO_CAP = 4096

#: The process's scratch pricing store, ``(owning pid, directory)``.
_SCRATCH_STORE: Optional[Tuple[int, str]] = None


def clear_runtime_memo() -> None:
    """Drop the in-process price memo and the scratch pricing store
    (tests; both are bounded anyway)."""
    global _SCRATCH_STORE
    _PRICE_MEMO.clear()
    if _SCRATCH_STORE is not None:
        _remove_scratch_store(*_SCRATCH_STORE)
        _SCRATCH_STORE = None


def scratch_pricing_store() -> str:
    """The pricing-store directory of pooled campaigns that have no result
    cache: made with ``tempfile.mkdtemp`` on first use, shared by every
    later such campaign of this process, removed at exit.  Pool workers
    each keep their own price memo, so without a shared store every worker
    would simulate each job shape itself."""
    global _SCRATCH_STORE
    if _SCRATCH_STORE is None or _SCRATCH_STORE[0] != os.getpid():
        import atexit
        import tempfile

        _SCRATCH_STORE = (os.getpid(), tempfile.mkdtemp(prefix="repro-pricing-"))
        atexit.register(_remove_scratch_store, *_SCRATCH_STORE)
    return _SCRATCH_STORE[1]


def _remove_scratch_store(owner: int, path: str) -> None:
    """Remove the scratch store at *path*, but only from its *owner* pid:
    a forked worker inherits the record, not the directory."""
    if os.getpid() == owner:
        import shutil

        shutil.rmtree(path, ignore_errors=True)


def _memo_get(key) -> Optional[int]:
    """The memoized price for *key* (refreshing its recency), or None."""
    hit = _PRICE_MEMO.pop(key, None)
    if hit is not None:
        _PRICE_MEMO[key] = hit
    return hit


def _memo_put(key, runtime: int) -> int:
    """Memoize *runtime* under *key*, evicting oldest-first at the cap."""
    while len(_PRICE_MEMO) >= _PRICE_MEMO_CAP:
        _PRICE_MEMO.pop(next(iter(_PRICE_MEMO)))
    _PRICE_MEMO[key] = runtime
    return runtime


def _price_path(pricing_store: str, key: str) -> Path:
    """The on-disk entry for shape digest *key* under the current model
    source: a shape priced by older model code is a different file."""
    from repro.parallel.jobspec import model_epoch, stable_digest

    return Path(pricing_store) / f"{stable_digest([key, model_epoch()])}.txt"


def _load_price(path: Path) -> Optional[int]:
    """The stored price at *path*, or None when it is missing or damaged
    (a damaged entry is simply re-simulated and overwritten)."""
    try:
        runtime = int(path.read_bytes())
    except (OSError, ValueError):
        return None
    return runtime if runtime >= 1 else None


def _sim_runtime(job: BatchJob, regime: str, internode_latency: int,
                 pricing_store: Optional[str] = None) -> int:
    from repro.parallel.jobspec import stable_digest

    key = stable_digest(job.shape_fingerprint(regime, internode_latency))
    hit = _memo_get(key)
    if hit is not None:
        return hit
    path = runtime = None
    if pricing_store is not None:
        path = _price_path(pricing_store, key)
        runtime = _load_price(path)
    if runtime is None:
        from repro.cluster.multinode import run_cluster_job

        result = run_cluster_job(
            job.program(),
            job.n_nodes,
            regime=regime,
            seed=job.seed,
            nprocs_per_node=job.nprocs_per_node,
            internode_latency=internode_latency,
        )
        runtime = max(1, result.app_time)
        if path is not None:
            from repro.parallel.cache import atomic_write

            atomic_write(path, f"{runtime}\n".encode("ascii"))
    return _memo_put(key, runtime)


def _analytic_runtime(job: BatchJob, regime: str) -> int:
    key = ("analytic", job.seed, job.ideal_us, regime)
    hit = _memo_get(key)
    if hit is not None:
        return hit
    try:
        mean_overhead, sigma = _ANALYTIC_OVERHEAD[regime]
    except KeyError:
        raise ValueError(
            f"unknown regime {regime!r}; choose from {sorted(_ANALYTIC_OVERHEAD)}"
        )
    rng = RngStreams(job.seed)
    z = float(rng.stream("batch.runtime").standard_normal())
    overhead = mean_overhead * math.exp(sigma * z)
    return _memo_put(key, max(1, int(job.ideal_us * (1.0 + overhead))))


def base_runtime_us(
    job: BatchJob,
    regime: str,
    *,
    model: str = "sim",
    internode_latency: int = 30,
    pricing_store: Optional[str] = None,
) -> int:
    """The job's isolated service demand, µs, under *regime*.

    "Isolated" means dedicated nodes at full rate; fractional-sharing
    dilation is the dispatcher's job, applied on top of this.
    *pricing_store*, a directory, persists sim-model prices across
    processes; the analytic model ignores it."""
    if model == "sim":
        return _sim_runtime(job, regime, internode_latency, pricing_store)
    if model == "analytic":
        return _analytic_runtime(job, regime)
    raise ValueError(
        f"unknown runtime model {model!r}; choose from {RUNTIME_MODELS}"
    )
