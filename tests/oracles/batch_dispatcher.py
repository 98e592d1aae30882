"""The batch dispatcher as it was before its indexes, kept verbatim.

This is the differential-testing oracle for :mod:`repro.batch.dispatcher`:
the per-event rescans here (a Fraction re-sort of the queue for
``priority``, a heap push per running job on every membership change for
``share``, full ``running`` scans for evictions and node returns) are slow
but obviously faithful to the policy definitions, so the Hypothesis suite
(``tests/test_batch_oracle.py``) demands that the indexed dispatcher
produce an equal :class:`~repro.batch.dispatcher.BatchResult`, field for
field, on arbitrary traces, fault timelines, policies and placements.

Only the engine and the policies are copied; the result dataclasses and
the fault-plan validator are imported from the live module so that the
two results compare with ``==``.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.batch.dispatcher import (
    BSLD_TAU_US,
    PLACEMENTS,
    BatchResult,
    JobOutcome,
    validate_batch_fault_plan,
)
from repro.batch.runtime import base_runtime_us
from repro.batch.workload import BatchJob
from repro.faults.plan import FaultKind, FaultPlan

from tests.oracles.batch_policies import BatchPolicy, make_policy

__all__ = ["BatchDispatcher", "simulate_batch"]

#: Event kinds, ordered: completions free nodes before same-instant faults
#: strike them, and both settle before same-instant arrivals are
#: considered, so an arrival always schedules against the post-release,
#: post-fault pool.
_EV_FINISH = 0
_EV_FAULT = 1
_EV_ARRIVAL = 2

#: Node lifecycle states (dispatcher-private).
_UP = "up"
_DRAINING = "draining"
_DOWN = "down"


class _Running:
    """Mutable in-flight job state (dispatcher-private)."""

    __slots__ = (
        "job", "nodes", "start", "base_runtime", "limit", "demand",
        "remaining", "rate", "version", "backfilled", "shared_peak",
    )

    def __init__(self, job: BatchJob, nodes: Tuple[int, ...], start: Fraction,
                 base_runtime: int, limit: Optional[int],
                 demand: Optional[Fraction] = None) -> None:
        self.job = job
        self.nodes = nodes
        self.start = start
        self.base_runtime = base_runtime
        self.limit = limit
        #: Service this incarnation owes, in dedicated-node µs.  Equals the
        #: isolated base runtime on a first start; a restart owes
        #: base - completed + restart_cost (checkpoint resume).
        self.demand = Fraction(base_runtime) if demand is None else demand
        # Work still owed at the current rate.  Rigid jobs owe
        # min(demand, limit) at rate 1; shared jobs owe demand at
        # 1/residents.
        self.remaining = (min(self.demand, Fraction(limit))
                          if limit is not None else self.demand)
        self.rate = Fraction(1)
        self.version = 0
        self.backfilled = False
        self.shared_peak = 1

    @property
    def guaranteed_release(self) -> Fraction:
        """Latest instant this job can still hold its nodes (rigid only;
        the walltime kill makes this a hard bound, which is what EASY's
        reservation arithmetic requires)."""
        assert self.limit is not None
        return self.start + self.limit


class BatchDispatcher:
    """Replay a job trace against *pool_nodes* nodes under *policy*.

    ``runtimes`` injects per-job base runtimes (job_id -> µs) in place of
    the runtime model — tests use it to build exact hand-checkable
    schedules.  ``fault_plan`` arms a ``BATCH``-universe fault timeline;
    ``job_retries`` bounds fault-kill requeues per job; ``restart_cost_us``
    is the checkpoint-resume surcharge each restart owes; ``placement``
    selects ``lowest`` (lowest-id-first, the historical rule) or ``wary``
    (deprioritize recently-failed nodes, ties by id).
    """

    def __init__(
        self,
        jobs: Tuple[BatchJob, ...],
        pool_nodes: int,
        policy: BatchPolicy,
        *,
        regime: str = "stock",
        runtime_model: str = "sim",
        internode_latency: int = 30,
        runtimes: Optional[Dict[int, int]] = None,
        tau_us: int = BSLD_TAU_US,
        fault_plan: Optional[FaultPlan] = None,
        job_retries: int = 2,
        restart_cost_us: int = 2_000,
        placement: str = "lowest",
    ) -> None:
        if pool_nodes < 1:
            raise ValueError("pool_nodes must be >= 1")
        widest = max((job.n_nodes for job in jobs), default=0)
        if widest > pool_nodes:
            raise ValueError(
                f"trace contains a {widest}-node job but the pool has only "
                f"{pool_nodes} nodes; no policy can ever start it"
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
        self.jobs = tuple(jobs)
        self.pool_nodes = pool_nodes
        self.policy = policy
        self.regime = regime
        self.runtime_model = runtime_model
        self.internode_latency = internode_latency
        self.runtimes = runtimes
        self.tau_us = tau_us
        self.fault_plan = fault_plan
        self.job_retries = job_retries
        self.restart_cost_us = restart_cost_us
        self.placement = placement
        #: Armed = there is at least one fault to apply.  Every fault-only
        #: code path below is gated on this (or degenerates to a no-op) so
        #: unarmed runs replay the historical dispatcher byte-for-byte.
        self._armed = fault_plan is not None and not fault_plan.is_empty

        self.now: Fraction = Fraction(0)
        self.queue: List[BatchJob] = []
        self.running: Dict[int, _Running] = {}
        self._free: List[int] = list(range(pool_nodes))  # kept sorted
        self._residents: List[int] = [0] * pool_nodes
        self._node_state: List[str] = [_UP] * pool_nodes
        self._node_failures: List[int] = [0] * pool_nodes
        self._events: list = []
        self._seq = 0
        self._vclock = 0
        self._done: Dict[int, JobOutcome] = {}
        self._busy_node_time: Fraction = Fraction(0)
        self._node_lost_time: Fraction = Fraction(0)
        self._promises: Dict[int, Fraction] = {}
        self._starts: Dict[int, Fraction] = {}
        # Cross-incarnation job state (all empty on an unarmed run).
        self._first_start: Dict[int, Fraction] = {}
        self._completed: Dict[int, Fraction] = {}
        self._requeue_count: Dict[int, int] = {}
        self._retries_used: Dict[int, int] = {}
        self._wall: Dict[int, Fraction] = {}
        self._held: Dict[int, Fraction] = {}
        self._peak: Dict[int, int] = {}

        self.backfills = 0
        self.colocations = 0
        self.kills = 0
        self.queue_depth_peak = 0
        self.head_delays = 0
        self.requeues = 0
        self.preempts = 0
        self.drains = 0
        self.node_fails = 0
        self.failed_jobs = 0

    # -- state the policies read ------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)

    def residents_on(self, node: int) -> int:
        return self._residents[node]

    def least_loaded_nodes(self, k: int) -> Tuple[int, ...]:
        """Up to *k* in-service nodes with fewest residents (ties: lowest
        id).  May return fewer than *k* while nodes are failed/draining —
        the share policy must check the width before placing."""
        order = sorted(
            (n for n in range(self.pool_nodes)
             if self._node_state[n] == _UP),
            key=lambda n: (self._residents[n], n),
        )
        return tuple(order[:k])

    def reclaimable_nodes(self, rj: _Running) -> int:
        """How many of *rj*'s nodes return to service when it releases
        them — the count EASY's shadow arithmetic may bank on.  A node
        that failed or started draining underneath a resident does not
        come back at release."""
        return sum(1 for n in rj.nodes if self._node_state[n] == _UP)

    def record_reservation(self, job_id: int, latest_start: Fraction) -> None:
        """EASY announces the head's reservation; keep the tightest bound
        ever promised so the audit is against the strongest claim."""
        prev = self._promises.get(job_id)
        if prev is None or latest_start < prev:
            self._promises[job_id] = latest_start

    # -- state the policies change ----------------------------------------

    def start_rigid(self, job: BatchJob, backfilled: bool = False) -> None:
        """Dedicate free nodes to *job* (lowest-id-first, or least-failed
        under ``wary`` placement); kill at the walltime limit if the
        node-level runtime overruns it."""
        assert job.job_id not in self.running
        if self.placement == "wary":
            ranked = sorted(self._free,
                            key=lambda n: (self._node_failures[n], n))
            nodes = tuple(sorted(ranked[: job.n_nodes]))
            self._free = [n for n in self._free if n not in nodes]
        else:
            nodes = tuple(self._free[: job.n_nodes])
            del self._free[: job.n_nodes]
        base = self._base_runtime(job)
        rj = _Running(job, nodes, self.now, base, limit=job.estimate,
                      demand=self._incarnation_demand(job, base))
        rj.backfilled = backfilled
        self._vclock += 1
        rj.version = self._vclock
        self.running[job.job_id] = rj
        self.queue.remove(job)
        self._starts[job.job_id] = self.now
        self._first_start.setdefault(job.job_id, self.now)
        if backfilled:
            self.backfills += 1
        promised = self._promises.get(job.job_id)
        if promised is not None and self.now > promised:
            self.head_delays += 1
        self._push(self.now + min(rj.demand, Fraction(job.estimate)),
                   _EV_FINISH, job.job_id, rj.version)

    def start_shared(self, job: BatchJob, nodes: Tuple[int, ...]) -> None:
        """Co-locate *job* on *nodes*; every node's capacity is split
        equally among residents, so all co-residents are repriced."""
        assert job.job_id not in self.running
        base = self._base_runtime(job)
        colocated = any(self._residents[n] > 0 for n in nodes)
        rj = _Running(job, tuple(nodes), self.now, base, limit=None,
                      demand=self._incarnation_demand(job, base))
        for n in nodes:
            self._residents[n] += 1
        self.running[job.job_id] = rj
        self.queue.remove(job)
        self._starts[job.job_id] = self.now
        self._first_start.setdefault(job.job_id, self.now)
        if colocated:
            self.colocations += 1
        self._reprice()

    def _incarnation_demand(self, job: BatchJob, base: int) -> Fraction:
        """Service this start owes: the full base on a first start; on a
        restart, the unfinished fraction plus the checkpoint-resume cost
        (completed work survives eviction)."""
        done = self._completed.get(job.job_id, Fraction(0))
        cost = (self.restart_cost_us
                if self._requeue_count.get(job.job_id, 0) else 0)
        demand = Fraction(base) - done + cost
        return demand if demand > 0 else Fraction(0)

    # -- engine ------------------------------------------------------------

    def dispatch(self) -> BatchResult:
        for job in self.jobs:
            self._push(Fraction(job.submit), _EV_ARRIVAL, job.job_id, 0)
        if self._armed:
            for idx, ev in enumerate(self.fault_plan.events):
                self._push(Fraction(ev.at), _EV_FAULT, idx, 0)
        by_id = {job.job_id: job for job in self.jobs}
        while self._events:
            when, kind, _seq, job_id, version = heapq.heappop(self._events)
            if kind == _EV_FINISH:
                rj = self.running.get(job_id)
                if rj is None or rj.version != version:
                    continue  # superseded by a repricing or an eviction
                self._advance(when)
                self._complete(rj)
            elif kind == _EV_FAULT:
                self._advance(when)
                self._apply_fault(self.fault_plan.events[job_id])
            else:
                self._advance(when)
                self.queue.append(by_id[job_id])
                self.queue_depth_peak = max(self.queue_depth_peak,
                                            len(self.queue))
            self.policy.schedule(self)
        # Starvation sweep: with the timeline exhausted, anything still
        # queued can never start (the surviving pool is permanently too
        # small for it).  Unreachable unarmed — the ctor width check plus
        # walltime kills guarantee an unarmed queue always drains.  Swept
        # in one pass: the historical pop(0)-per-job loop re-shifted the
        # whole list each iteration (quadratic in queue depth), which a
        # large fault-stranded backlog turned into real time.
        if self.queue:
            for job in self.queue:
                self._fail(job, None)
            self.queue.clear()
        return self._result()

    def _push(self, when: Fraction, kind: int, job_id: int,
              version: int) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, kind, self._seq, job_id, version))

    def _occupied(self) -> int:
        if self.policy.rigid:
            return sum(len(rj.nodes) for rj in self.running.values())
        return sum(1 for r in self._residents if r > 0)

    def _advance(self, when: Fraction) -> None:
        dt = when - self.now
        if dt > 0:
            self._busy_node_time += self._occupied() * dt
            if self._armed and (self.running or self.queue):
                self._node_lost_time += self._lost_nodes() * dt
            if not self.policy.rigid:
                for rj in self.running.values():
                    rj.remaining -= rj.rate * dt
            self.now = when
        # Exact arithmetic: no work owed can go negative; clamp anyway so a
        # future inexact runtime model degrades gracefully, not explosively.
        if not self.policy.rigid:
            for rj in self.running.values():
                if rj.remaining < 0:
                    rj.remaining = Fraction(0)

    def _lost_nodes(self) -> int:
        """Out-of-service nodes that are not still finishing a resident
        (a draining node with residents is busy, not lost)."""
        if self.policy.rigid:
            held = set()
            for rj in self.running.values():
                held.update(rj.nodes)
            return sum(1 for n in range(self.pool_nodes)
                       if self._node_state[n] != _UP and n not in held)
        return sum(1 for n in range(self.pool_nodes)
                   if self._node_state[n] != _UP and self._residents[n] == 0)

    def _reprice(self) -> None:
        """Recompute every shared job's service rate and predicted finish
        after a membership change (remaining work was settled by
        :meth:`_advance` before the change)."""
        for rj in self.running.values():
            load = max(self._residents[n] for n in rj.nodes)
            rj.shared_peak = max(rj.shared_peak, load)
            rj.rate = Fraction(1, load)
            self._vclock += 1
            rj.version = self._vclock
            self._push(self.now + rj.remaining / rj.rate, _EV_FINISH,
                       rj.job.job_id, rj.version)

    # -- faults ------------------------------------------------------------

    def _apply_fault(self, ev) -> None:
        if ev.kind == FaultKind.NODE_FAIL:
            if self._node_state[ev.node] == _DOWN:
                return  # idempotent: already dead
            self._node_state[ev.node] = _DOWN
            self._node_failures[ev.node] += 1
            self.node_fails += 1
            if ev.node in self._free:
                self._free.remove(ev.node)
            self._evict_residents(ev.node, preempt=False)
            self._forget_queued_promises()
        elif ev.kind == FaultKind.NODE_DRAIN:
            if self._node_state[ev.node] != _UP:
                return  # already draining or dead
            self._node_state[ev.node] = _DRAINING
            self.drains += 1
            if ev.node in self._free:
                self._free.remove(ev.node)
            if ev.preempt:
                self._evict_residents(ev.node, preempt=True)
            self._forget_queued_promises()
        elif ev.kind == FaultKind.NODE_RETURN:
            if self._node_state[ev.node] == _UP:
                return  # idempotent: already in service
            self._node_state[ev.node] = _UP
            if ev.node not in self._free and all(
                ev.node not in rj.nodes for rj in self.running.values()
            ):
                insort(self._free, ev.node)

    def _evict_residents(self, node: int, *, preempt: bool) -> None:
        victims = sorted(
            (rj for rj in self.running.values() if node in rj.nodes),
            key=lambda rj: rj.job.job_id,
        )
        for rj in victims:
            self._evict(rj, preempt=preempt)
        if victims and not self.policy.rigid:
            self._reprice()

    def _forget_queued_promises(self) -> None:
        """Capacity just changed: reservations promised to still-queued
        jobs were computed against the old pool and must be re-derived by
        the policy, else the tightest-ever audit would hold EASY to a
        shadow the surviving capacity cannot honour."""
        queued = {job.job_id for job in self.queue}
        for jid in list(self._promises):
            if jid in queued:
                del self._promises[jid]

    def _evict(self, rj: _Running, *, preempt: bool) -> None:
        """Tear one incarnation down: bank its useful progress (minus the
        restart surcharge it was still repaying), release surviving nodes,
        then requeue — or fail it when the retry budget is spent."""
        job = rj.job
        jid = job.job_id
        if rj.limit is not None:
            executed = self.now - rj.start  # rigid: rate-1 service
            if executed > rj.demand:
                executed = rj.demand
        else:
            executed = rj.demand - rj.remaining
        overhead = rj.demand - (Fraction(rj.base_runtime)
                                - self._completed.get(jid, Fraction(0)))
        useful = executed - overhead
        if useful < 0:
            useful = Fraction(0)
        done = self._completed.get(jid, Fraction(0)) + useful
        base = Fraction(rj.base_runtime)
        self._completed[jid] = done if done < base else base
        wall = self.now - rj.start
        self._wall[jid] = self._wall.get(jid, Fraction(0)) + wall
        self._held[jid] = (self._held.get(jid, Fraction(0))
                           + wall * len(rj.nodes))
        self._peak[jid] = max(self._peak.get(jid, 1), rj.shared_peak)
        del self.running[jid]
        if rj.limit is not None:
            self._free = sorted(
                self._free
                + [n for n in rj.nodes if self._node_state[n] == _UP]
            )
        else:
            for n in rj.nodes:
                self._residents[n] -= 1
        self._promises.pop(jid, None)
        self._starts.pop(jid, None)
        if preempt:
            # Administrative preemption: the operator chose to move the
            # job, so it does not burn the failure-retry budget.
            self.preempts += 1
            self._requeue(job)
        else:
            self._retries_used[jid] = self._retries_used.get(jid, 0) + 1
            if self._retries_used[jid] > self.job_retries:
                self._fail(job, rj)
            else:
                self._requeue(job)

    def _requeue(self, job: BatchJob) -> None:
        jid = job.job_id
        self._requeue_count[jid] = self._requeue_count.get(jid, 0) + 1
        self.requeues += 1
        # Requeue at the back: an evicted job re-enters behind jobs that
        # have been waiting (deterministic, and it cannot invalidate a
        # reservation already promised to the queue head).
        self.queue.append(job)
        self.queue_depth_peak = max(self.queue_depth_peak, len(self.queue))

    def _fail(self, job: BatchJob, rj: Optional[_Running]) -> None:
        """Terminal non-completion: retries exhausted, or (rj=None) the
        surviving pool can never fit the job."""
        jid = job.job_id
        first = self._first_start.get(jid)
        start = first if first is not None else self.now
        wall = self._wall.get(jid, Fraction(0))
        base = rj.base_runtime if rj is not None else 0
        isolated = min(base, job.estimate) if base else job.estimate
        response = self.now - job.submit
        bsld = max(1.0, float(response) / max(float(isolated),
                                              float(self.tau_us)))
        self.failed_jobs += 1
        self._done[jid] = JobOutcome(
            job_id=jid,
            digest=job.digest(),
            submit=job.submit,
            n_nodes=job.n_nodes,
            estimate=job.estimate,
            base_runtime=base,
            start=float(start),
            finish=float(self.now),
            wait=float(start - job.submit),
            runtime=float(wall),
            response=float(response),
            bounded_slowdown=bsld,
            killed=False,
            backfilled=rj.backfilled if rj is not None else False,
            shared_peak=max(self._peak.get(jid, 1),
                            rj.shared_peak if rj is not None else 1),
            requeues=self._requeue_count.get(jid, 0),
            failed=True,
            held_node_us=float(self._held.get(jid, Fraction(0))),
        )

    # -- completion --------------------------------------------------------

    def _complete(self, rj: _Running) -> None:
        job = rj.job
        jid = job.job_id
        killed = rj.limit is not None and rj.demand > rj.limit
        if killed:
            self.kills += 1
        del self.running[jid]
        if rj.limit is not None:
            self._free = sorted(
                self._free
                + [n for n in rj.nodes if self._node_state[n] == _UP]
            )
        else:
            for n in rj.nodes:
                self._residents[n] -= 1
            self._reprice()
        start = self._first_start.get(jid, rj.start)
        finish = self.now
        wait = start - job.submit
        runtime = (self._wall.get(jid, Fraction(0))
                   + (finish - rj.start))
        held = (self._held.get(jid, Fraction(0))
                + (finish - rj.start) * len(rj.nodes))
        response = finish - job.submit
        # Bounded slowdown divides by the *isolated* demand, not the held
        # wall time — sharing's dilation must count as stretch, and a killed
        # job's demand is capped at its limit (it never got to owe more).
        isolated = (min(rj.base_runtime, rj.limit) if rj.limit is not None
                    else rj.base_runtime)
        bsld = max(1.0, float(response) / max(float(isolated), float(self.tau_us)))
        self._done[jid] = JobOutcome(
            job_id=jid,
            digest=job.digest(),
            submit=job.submit,
            n_nodes=job.n_nodes,
            estimate=job.estimate,
            base_runtime=rj.base_runtime,
            start=float(start),
            finish=float(finish),
            wait=float(wait),
            runtime=float(runtime),
            response=float(response),
            bounded_slowdown=bsld,
            killed=killed,
            backfilled=rj.backfilled,
            shared_peak=max(self._peak.get(jid, 1), rj.shared_peak),
            requeues=self._requeue_count.get(jid, 0),
            failed=False,
            held_node_us=float(held),
        )

    def _base_runtime(self, job: BatchJob) -> int:
        if self.runtimes is not None:
            return self.runtimes[job.job_id]
        return base_runtime_us(
            job, self.regime,
            model=self.runtime_model,
            internode_latency=self.internode_latency,
        )

    def _result(self) -> BatchResult:
        missing = [j.job_id for j in self.jobs if j.job_id not in self._done]
        if missing:  # pragma: no cover - termination is structural
            raise RuntimeError(f"dispatch ended with unfinished jobs: {missing}")
        outcomes = tuple(self._done[j.job_id] for j in self.jobs)
        first_submit = min(j.submit for j in self.jobs)
        last_finish = max(o.finish for o in outcomes)
        span = last_finish - first_submit
        util = float(self._busy_node_time) / (self.pool_nodes * span) if span > 0 else 0.0
        waits = [o.wait for o in outcomes]
        bslds = [o.bounded_slowdown for o in outcomes]
        reservations = tuple(
            (job_id, float(promised), float(self._starts[job_id]))
            for job_id, promised in sorted(self._promises.items())
            if job_id in self._starts
        )
        return BatchResult(
            policy=self.policy.name,
            policy_params=tuple(sorted(self.policy.params().items())),
            regime=self.regime,
            runtime_model=self.runtime_model,
            pool_nodes=self.pool_nodes,
            n_jobs=len(outcomes),
            jobs=outcomes,
            makespan_us=span,
            mean_wait_us=sum(waits) / len(waits),
            max_wait_us=max(waits),
            mean_bsld=sum(bslds) / len(bslds),
            max_bsld=max(bslds),
            utilization=util,
            backfills=self.backfills,
            colocations=self.colocations,
            kills=self.kills,
            queue_depth_peak=self.queue_depth_peak,
            head_delays=self.head_delays,
            reservations=reservations,
            requeues=self.requeues,
            preempts=self.preempts,
            drains=self.drains,
            node_fails=self.node_fails,
            failed=self.failed_jobs,
            node_lost_us=float(self._node_lost_time),
            busy_node_us=float(self._busy_node_time),
            fault_plan_digest=(self.fault_plan.digest()
                               if self._armed else None),
        )


def simulate_batch(
    jobs: Tuple[BatchJob, ...],
    pool_nodes: int,
    policy: str,
    *,
    policy_params: Optional[Dict[str, object]] = None,
    regime: str = "stock",
    runtime_model: str = "sim",
    internode_latency: int = 30,
    runtimes: Optional[Dict[int, int]] = None,
    fault_plan: Optional[FaultPlan] = None,
    job_retries: int = 2,
    restart_cost_us: int = 2_000,
    placement: str = "lowest",
) -> BatchResult:
    """One-call schedule of *jobs* under a policy named by registry key."""
    disp = BatchDispatcher(
        jobs, pool_nodes, make_policy(policy, **(policy_params or {})),
        regime=regime, runtime_model=runtime_model,
        internode_latency=internode_latency, runtimes=runtimes,
        fault_plan=fault_plan, job_retries=job_retries,
        restart_cost_us=restart_cost_us, placement=placement,
    )
    return disp.dispatch()
