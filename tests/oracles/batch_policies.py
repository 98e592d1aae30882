"""The batch allocation policies as they were before the dispatcher's
indexes, kept verbatim as the oracle's decision rules (see
:mod:`tests.oracles.batch_dispatcher`)."""

from __future__ import annotations

from typing import Dict, List

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
        releases = sorted(
            (rj.guaranteed_release, disp.reclaimable_nodes(rj),
             rj.job.job_id)
            for rj in disp.running.values()
        )
        available = disp.free_count
        shadow = None
        extra = 0
        for release_at, n_nodes, _job_id in releases:
            available += n_nodes
            if available >= head.n_nodes:
                shadow = release_at
                extra = available - head.n_nodes
                break
        if shadow is None:
            # The head exceeds every node the surviving pool can ever
            # free (unreachable unarmed: dispatch validates trace width
            # against the full pool).  No reservation is honest, so fill
            # the free nodes greedily rather than idling the machine —
            # the head waits for a node_return or the starvation sweep.
            free_now = disp.free_count
            for job in list(disp.queue[1:]):
                if job.n_nodes <= free_now:
                    disp.start_rigid(job, backfilled=True)
                    free_now -= job.n_nodes
            return
        disp.record_reservation(head.job_id, shadow)
        # Backfill pass: anything that fits the free nodes *now* and
        # provably cannot delay the reservation.
        free_now = disp.free_count
        for job in list(disp.queue[1:]):
            if job.n_nodes > free_now:
                continue
            finishes_before_shadow = disp.now + job.estimate <= shadow
            fits_spare_nodes = job.n_nodes <= extra
            if not (finishes_before_shadow or fits_spare_nodes):
                continue
            disp.start_rigid(job, backfilled=True)
            free_now -= job.n_nodes
            if not finishes_before_shadow:
                # Runs past the shadow time: it permanently consumes nodes
                # the reservation was not counting on.
                extra -= job.n_nodes


class PriorityPolicy(BatchPolicy):
    """EWT-style priority rules: rank = eldest wait - weighted estimate."""

    name = "priority"

    def __init__(self, wait_weight: int = 1, estimate_weight: int = 1) -> None:
        if wait_weight < 0 or estimate_weight < 0:
            raise ValueError("priority weights cannot be negative")
        self.wait_weight = wait_weight
        self.estimate_weight = estimate_weight

    def params(self) -> Dict[str, object]:
        return {
            "wait_weight": self.wait_weight,
            "estimate_weight": self.estimate_weight,
        }

    def schedule(self, disp) -> None:
        # Exact arithmetic: now is a Fraction, everything else ints, so the
        # ranking never depends on float rounding.
        def rank(job):
            waited = disp.now - job.submit
            score = self.wait_weight * waited - self.estimate_weight * job.estimate
            return (-score, job.job_id)

        for job in sorted(disp.queue, key=rank):
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
            if max(disp.residents_on(n) for n in nodes) >= self.max_share:
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
