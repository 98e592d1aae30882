"""Allocation policies: who starts next, where, at what share.

The dispatcher (:mod:`repro.batch.dispatcher`) owns time, the node pool and
the event queue; a policy is the pure decision rule invoked after every
state change.  Four rules span the design space the two-level-scheduling
literature contrasts:

``fcfs``
    Strict arrival order; the queue head blocks everyone behind it
    (maximal fairness, worst fragmentation).
``easy``
    EASY backfilling (Lifka/Skovira): the head gets a *reservation* — the
    earliest instant enough nodes are guaranteed free, computed from the
    running jobs' walltime bounds — and later jobs may jump the queue only
    if they provably cannot delay it: they either finish before the shadow
    time or fit inside the nodes the reservation does not need.  Because
    the dispatcher kills jobs at their walltime bound, the guarantee is
    unconditional; the dispatcher audits it on every backfill.
``priority``
    EWT-style priority rules: the queue is ranked by eldest-wait minus
    weighted-estimate (old jobs rise, short jobs rise) and served greedily
    first-fit at every decision point.  No reservation — the
    contrast case showing what backfilling's guarantee actually buys.
``share``
    Dynamic fractional sharing (Casanova, arXiv:1106.4985): jobs are
    co-located on the least-loaded nodes immediately (up to ``max_share``
    residents per node) and each node's capacity is split equally among
    its residents — a cluster-wide processor-sharing discipline instead of
    rigid space sharing.  Estimates are advisory; nothing is killed.

Every rule is deterministic: ties break on job id, node choice is
lowest-id-first, and all arithmetic is exact (integers and fractions), so
a schedule is a pure function of ``(trace, policy, runtime model)``.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BATCH_POLICIES",
    "BatchPolicy",
    "FcfsPolicy",
    "EasyPolicy",
    "PriorityPolicy",
    "SharePolicy",
    "make_policy",
]


class BatchPolicy:
    """Decision rule contract (see module docstring for the catalogue)."""

    #: Registry key and provenance label.
    name = "?"
    #: Rigid policies allocate dedicated nodes; sharing policies co-locate.
    rigid = True
    #: Ranking policies define ``rank_key(job)`` and get ``disp.ranked``:
    #: the queue kept sorted by that key as jobs arrive, requeue and start.
    #: The key must not depend on time (it is computed once per enqueue)
    #: and must end in the job id so keys are unique.
    rank_key: Optional[Callable[[object], Tuple[int, int]]] = None

    def params(self) -> Dict[str, object]:
        """Digest-relevant tuning knobs (empty for parameter-free rules)."""
        return {}

    def schedule(self, disp) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class FcfsPolicy(BatchPolicy):
    name = "fcfs"

    def schedule(self, disp) -> None:
        while disp.queue and disp.free_count >= disp.queue[0].n_nodes:
            disp.start_rigid(disp.queue[0])


class EasyPolicy(BatchPolicy):
    name = "easy"

    def schedule(self, disp) -> None:
        # Serve the head of the queue strictly FCFS while it fits.
        while disp.queue and disp.free_count >= disp.queue[0].n_nodes:
            disp.start_rigid(disp.queue[0])
        if not disp.queue:
            return
        head = disp.queue[0]
        # Reservation: walk running jobs in guaranteed-release order until
        # enough nodes are certain to be free for the head.  Walltime
        # bounds are enforced by kill, so releases can only happen earlier.
        # Only *reclaimable* nodes count: a node that failed or started
        # draining under a resident never returns to the pool at release,
        # so banking on it would promise capacity that cannot exist.
        shadow, extra = self._shadow(disp, head.n_nodes)
        free_now = disp.free_count
        if shadow is None:
            # The head exceeds every node the surviving pool can ever
            # free (unreachable unarmed: dispatch validates trace width
            # against the full pool).  No reservation is honest, so fill
            # the free nodes greedily rather than idling the machine —
            # the head waits for a node_return or the starvation sweep.
            for job in disp.queue[1:]:
                if free_now == 0:
                    break
                if job.n_nodes <= free_now:
                    disp.start_rigid(job, backfilled=True)
                    free_now -= job.n_nodes
            return
        disp.record_reservation(head.job_id, shadow)
        # Backfill pass: anything that fits the free nodes *now* and
        # provably cannot delay the reservation.  Estimates are integers,
        # so now + estimate <= shadow is estimate <= floor(shadow - now).
        slack = math.floor(shadow - disp.now)
        for job in disp.queue[1:]:
            if free_now == 0:
                break
            if job.n_nodes > free_now:
                continue
            finishes_before_shadow = job.estimate <= slack
            fits_spare_nodes = job.n_nodes <= extra
            if not (finishes_before_shadow or fits_spare_nodes):
                continue
            disp.start_rigid(job, backfilled=True)
            free_now -= job.n_nodes
            if not finishes_before_shadow:
                # Runs past the shadow time: it permanently consumes nodes
                # the reservation was not counting on.
                extra -= job.n_nodes

    @staticmethod
    def _shadow(disp, need: int):
        """(shadow time, spare nodes at it) for a head needing *need*
        nodes, or (None, 0) when the surviving pool never frees enough.

        ``disp.releases`` is ordered by (release, job id); the walk takes
        jobs releasing at the same instant smallest reclaimable count
        first, so where it crosses *need* — hence the spare count — is
        that of an order by (release, reclaimable, job id)."""
        available = disp.free_count
        for release_at, tied in groupby(disp.releases, key=itemgetter(0)):
            counts = sorted(disp.reclaimable_nodes(disp.running[job_id])
                            for _, job_id in tied)
            for count in counts:
                available += count
                if available >= need:
                    return release_at, available - need
        return None, 0


class PriorityPolicy(BatchPolicy):
    """EWT-style priority rules: rank = eldest wait - weighted estimate.

    The score ``w·(now - submit) - e·estimate`` changes with time, but
    every queued job shares the same ``now``, so ordering by descending
    score is ordering by ascending ``w·submit + e·estimate`` (ties on job
    id): subtracting the common ``w·now`` moves no job past another.  That
    key is fixed at arrival, so the dispatcher keeps the queue in rank
    order as jobs arrive, requeue and start instead of re-sorting it at
    every decision.  Weights must be integers, which keeps the key exact.
    """

    name = "priority"

    def __init__(self, wait_weight: int = 1, estimate_weight: int = 1) -> None:
        for label, weight in (("wait_weight", wait_weight),
                              ("estimate_weight", estimate_weight)):
            if isinstance(weight, bool) or not isinstance(weight, int):
                raise ValueError(
                    f"priority {label} must be an integer, got {weight!r}"
                )
        if wait_weight < 0 or estimate_weight < 0:
            raise ValueError("priority weights cannot be negative")
        self.wait_weight = wait_weight
        self.estimate_weight = estimate_weight

    def params(self) -> Dict[str, object]:
        return {
            "wait_weight": self.wait_weight,
            "estimate_weight": self.estimate_weight,
        }

    def rank_key(self, job) -> Tuple[int, int]:
        return (self.wait_weight * job.submit
                + self.estimate_weight * job.estimate, job.job_id)

    def schedule(self, disp) -> None:
        # First fit in rank order over a snapshot (starts remove jobs from
        # the index); once no node is free no later job can fit.
        for _key, _job_id, job in list(disp.ranked):
            if disp.free_count == 0:
                break
            if disp.free_count >= job.n_nodes:
                disp.start_rigid(job)


class SharePolicy(BatchPolicy):
    """Dynamic fractional sharing: co-locate now, split capacity equally."""

    name = "share"
    rigid = False

    def __init__(self, max_share: int = 4) -> None:
        if max_share < 1:
            raise ValueError("max_share must be >= 1")
        self.max_share = max_share

    def params(self) -> Dict[str, object]:
        return {"max_share": self.max_share}

    def schedule(self, disp) -> None:
        for job in list(disp.queue):
            nodes = disp.least_loaded_nodes(job.n_nodes)
            if len(nodes) < job.n_nodes:
                # Not enough in-service nodes for this width right now
                # (failed/draining capacity); narrower jobs behind it may
                # still fit, so skip rather than stall the whole queue.
                continue
            # The nodes come in ascending residency: the last is the most
            # loaded.
            if disp.residents_on(nodes[-1]) >= self.max_share:
                # Oversubscription cap reached; keep FCFS order while the
                # pool drains rather than burying it deeper.
                break
            disp.start_shared(job, nodes)


#: name -> policy class, the CLI/campaign-facing registry.
BATCH_POLICIES: Dict[str, type] = {
    cls.name: cls for cls in (FcfsPolicy, EasyPolicy, PriorityPolicy, SharePolicy)
}


def make_policy(name: str, **params) -> BatchPolicy:
    """Instantiate a policy by registry name (campaign specs carry the
    name + params, never the object)."""
    try:
        cls = BATCH_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown batch policy {name!r}; choose from {sorted(BATCH_POLICIES)}"
        )
    return cls(**params)


def _policy_order(disp) -> List[int]:  # pragma: no cover - debug helper
    """Queue as job ids (introspection while debugging schedules)."""
    return [job.job_id for job in disp.queue]
