"""The batch dispatcher: an exact-arithmetic event loop over a node pool.

This is the top level of the two-level scheduler.  The node level
(:mod:`repro.cluster.multinode`) prices one job on one set of nodes; the
dispatcher replays a whole arrival trace against a fixed pool, asking the
policy who starts next after every arrival, every completion — and, when a
:class:`~repro.faults.plan.FaultPlan` is armed, every pool fault.

Determinism is the load-bearing wall.  All clocks are exact rationals: a
plain ``int`` while integral, a dispatcher-private :class:`_Rational` only
where processor sharing divides (the work a shared job still owes is
``(finish_at - now) / load``).  :func:`_rational` is the only place one is
made and returns the ``int`` for an integral value, so every stored time
and amount is canonical without a normalizing pass, fcfs, easy and
priority never build a rational, and sharing rates (1/2, 1/3, ...) never
accumulate float error.  Event ordering is a
total order on ``(time, kind, sequence)``; node selection is
lowest-id-first.  A schedule is therefore a pure function of ``(trace,
pool, policy, runtime model, fault plan)`` and
:meth:`BatchResult.schedule_digest` is stable across platforms and
process counts — the property the campaign fabric's byte-determinism
contract (and CI's determinism gate) stands on.

Rigid policies enforce walltime limits: a job is killed at
``start + estimate`` if the node-level simulation runs longer.  That is
not decoration — EASY's non-delay guarantee is only provable because
running jobs have hard release bounds, and the dispatcher audits every
reservation promise against the head's actual start (`head_delays` must
be 0; the Hypothesis suite leans on this, and under ``REPRO_SANITIZE=1`` a
start past its promise raises ``batch-easy-promise`` at once).

Fault model (the ``BATCH`` universe of :class:`repro.faults.plan.FaultKind`):

* ``node_fail`` — fail-stop: resident jobs are evicted and requeued under
  the per-job retry budget; the node stays out until a ``node_return``.
* ``node_drain`` — maintenance: no new placements; residents finish
  (default) or are preempted-and-requeued (``preempt=True``, which does
  *not* consume retry budget — the work loss was administrative).
* ``node_return`` — the node re-enters service.

Requeued jobs restart with checkpoint-aware pricing: the work already
completed survives the eviction, so the next incarnation's demand is
``base - completed + restart_cost`` — partial re-execution stays a pure
function of the job's shape because ``base`` still comes from the runtime
model.  Zero-cost-when-unarmed: with no fault plan (or an empty one) every
code path below reduces exactly to the pre-fault dispatcher, so unarmed
schedules and digests are byte-identical to historical ones.
"""

from __future__ import annotations

import heapq
import math
from math import gcd
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.batch.policies import BatchPolicy, make_policy
from repro.batch.runtime import base_runtime_us
from repro.batch.workload import BatchJob
from repro.faults.plan import FaultKind, FaultPlan
from repro.kernel.invariants import InvariantViolation, sanitizer_enabled

__all__ = [
    "BSLD_TAU_US",
    "BatchDispatcher",
    "BatchResult",
    "JobOutcome",
    "simulate_batch",
    "validate_batch_fault_plan",
]

#: Bounded-slowdown threshold (Feitelson's tau), µs: jobs shorter than
#: this do not get to claim astronomical slowdowns.
BSLD_TAU_US = 10_000

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

#: Placement variants for rigid starts.
PLACEMENTS = ("lowest", "wary")


class _Rational:
    """A non-integral exact rational ``n/d``, dispatcher-private.

    Always in lowest terms with ``d > 1``: :func:`_rational` is the only
    place one is made, and it returns a plain ``int`` for an integral
    value, so every operation below yields canonical form.  It computes
    ``+``, ``-`` and ``*`` against ``int`` and itself, compares with both
    in either operand order, and converts with ``float()`` exactly as
    :class:`fractions.Fraction` does — without the numeric-tower checks
    that make each Fraction operation cost microseconds.
    """

    __slots__ = ("n", "d")

    def __add__(self, other):
        if type(other) is int:
            return _rational(self.n + other * self.d, self.d)
        if type(other) is _Rational:
            return _rational(self.n * other.d + other.n * self.d,
                             self.d * other.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _rational(self.n - other * self.d, self.d)
        if type(other) is _Rational:
            return _rational(self.n * other.d - other.n * self.d,
                             self.d * other.d)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return _rational(other * self.d - self.n, self.d)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            return _rational(self.n * other, self.d)
        if type(other) is _Rational:
            return _rational(self.n * other.n, self.d * other.d)
        return NotImplemented

    __rmul__ = __mul__

    # Canonical form makes equality structural, and an int never equals a
    # non-integral value.  Reflected comparisons (int < q) reach the
    # mirrored method (q > int) through Python's operator fallback.
    def __eq__(self, other):
        if type(other) is _Rational:
            return self.n == other.n and self.d == other.d
        if type(other) is int:
            return False
        return NotImplemented

    def __lt__(self, other):
        if type(other) is int:
            return self.n < other * self.d
        if type(other) is _Rational:
            return self.n * other.d < other.n * self.d
        return NotImplemented

    def __le__(self, other):
        if type(other) is int:
            return self.n <= other * self.d
        if type(other) is _Rational:
            return self.n * other.d <= other.n * self.d
        return NotImplemented

    def __gt__(self, other):
        if type(other) is int:
            return self.n > other * self.d
        if type(other) is _Rational:
            return self.n * other.d > other.n * self.d
        return NotImplemented

    def __ge__(self, other):
        if type(other) is int:
            return self.n >= other * self.d
        if type(other) is _Rational:
            return self.n * other.d >= other.n * self.d
        return NotImplemented

    def __float__(self):
        # Correctly rounded int true division, as Fraction.__float__.
        return self.n / self.d

    def __repr__(self):
        return f"{self.n}/{self.d}"


def _rational(n: int, d: int) -> Exact:
    """``n/d`` for ``d > 0`` in canonical form: the ``int`` when integral,
    else a :class:`_Rational` in lowest terms.  The only constructor."""
    g = gcd(n, d)
    if g == d:
        return n // d
    q = object.__new__(_Rational)
    q.n = n // g
    q.d = d // g
    return q


#: An exact dispatcher time or amount, µs: ``int`` unless sharing divided it.
Exact = Union[int, _Rational]


def _divide(value: Exact, load: int) -> Exact:
    """``value / load`` exactly (``load >= 1``)."""
    if type(value) is int:
        return _rational(value, load)
    return _rational(value.n, value.d * load)


def validate_batch_fault_plan(plan: FaultPlan, pool_nodes: int) -> None:
    """Reject plans the batch layer cannot consume (wrong universe or a
    node index outside the pool).  Campaigns call this eagerly so a bad
    sweep fails at build time, not mid-fan-out."""
    for ev in plan.events:
        if ev.kind not in FaultKind.BATCH:
            raise ValueError(
                f"batch fault plan cannot contain {ev.kind!r} events "
                f"(only {'/'.join(FaultKind.BATCH)})"
            )
        if ev.node is None or ev.node >= pool_nodes:
            raise ValueError(
                f"fault event targets node {ev.node} but the pool has "
                f"only {pool_nodes} nodes"
            )


class _Running:
    """Mutable in-flight job state (dispatcher-private)."""

    __slots__ = (
        "job", "nodes", "start", "base_runtime", "limit", "demand",
        "finish_at", "load", "version", "backfilled", "shared_peak",
    )

    def __init__(self, job: BatchJob, nodes: Tuple[int, ...], start: Exact,
                 base_runtime: int, limit: Optional[int],
                 demand: Exact) -> None:
        self.job = job
        self.nodes = nodes
        self.start = start
        self.base_runtime = base_runtime
        self.limit = limit
        #: Service this incarnation owes, in dedicated-node µs.  Equals the
        #: isolated base runtime on a first start; a restart owes
        #: base - completed + restart_cost (checkpoint resume).
        self.demand = demand
        #: Predicted completion instant.  Rigid jobs run at rate 1 until
        #: min(demand, limit); a shared job runs at 1/load and is re-timed
        #: only when its load changes, so the work it still owes is always
        #: (finish_at - now) / load — settled where it is read, never per
        #: event.
        self.finish_at = start + (min(demand, limit)
                                  if limit is not None else demand)
        #: Worst residency across the job's nodes (shared jobs only).
        self.load = 1
        self.version = 0
        self.backfilled = False
        self.shared_peak = 1

    @property
    def guaranteed_release(self) -> Exact:
        """Latest instant this job can still hold its nodes (rigid only;
        the walltime kill makes this a hard bound, which is what EASY's
        reservation arithmetic requires)."""
        assert self.limit is not None
        return self.start + self.limit


@dataclass(frozen=True)
class JobOutcome:
    """One job's fate under one policy (all times µs)."""

    job_id: int
    digest: str
    submit: int
    n_nodes: int
    estimate: int
    #: Isolated service demand from the runtime model.
    base_runtime: int
    start: float
    finish: float
    wait: float
    #: Wall time the job actually held nodes (== base for rigid survivors,
    #: estimate for kills, dilated by sharing for co-located jobs; summed
    #: over incarnations when the job was requeued).
    runtime: float
    response: float
    bounded_slowdown: float
    killed: bool
    backfilled: bool
    #: Worst co-residency the job saw (1 = always dedicated).
    shared_peak: int
    #: Times the job was evicted (node failure or preempting drain) and
    #: put back in the queue.
    requeues: int = 0
    #: True when the job never completed: its retry budget was exhausted
    #: by node failures, or the surviving pool could never fit it.
    failed: bool = False
    #: Node-seconds the job occupied across all incarnations (µs x nodes).
    held_node_us: float = 0.0


def _job_outcome(**fields) -> JobOutcome:
    """``JobOutcome(**fields)`` without the frozen ``__init__``'s one
    ``object.__setattr__`` per field: the keyword dict becomes the
    record's ``__dict__``.  Callers pass every field, in field order, so
    the record equals a constructed one in ``==``, ``hash``, ``repr``,
    :func:`dataclasses.asdict` and pickle bytes, and stays frozen."""
    outcome = object.__new__(JobOutcome)
    object.__setattr__(outcome, "__dict__", fields)
    return outcome


@dataclass(frozen=True)
class BatchResult:
    """A full schedule plus its aggregate metrics (picklable, cacheable)."""

    policy: str
    policy_params: Tuple[Tuple[str, object], ...]
    regime: str
    runtime_model: str
    pool_nodes: int
    n_jobs: int
    jobs: Tuple[JobOutcome, ...]
    makespan_us: float
    mean_wait_us: float
    max_wait_us: float
    mean_bsld: float
    max_bsld: float
    #: Busy-node-time / (pool x active span), in [0, 1].
    utilization: float
    backfills: int
    colocations: int
    kills: int
    queue_depth_peak: int
    #: EASY promise audit: reservations the head's actual start violated.
    #: The policy's guarantee says this is always 0.
    head_delays: int
    #: (job_id, promised latest start, actual start) for every reservation
    #: the policy announced — the raw material of the property tests.
    reservations: Tuple[Tuple[int, float, float], ...]
    #: Fault-universe aggregates.  All stay at their defaults on an
    #: unarmed run, and schedule_digest() folds them in only when armed,
    #: so pre-fault digests are untouched.
    requeues: int = 0
    preempts: int = 0
    drains: int = 0
    node_fails: int = 0
    failed: int = 0
    #: Node-µs lost to dead/drained capacity while work was pending.
    node_lost_us: float = 0.0
    #: Total node-µs actually occupied (conservation-test counterpart of
    #: the per-job ``held_node_us``).
    busy_node_us: float = 0.0
    #: Digest of the armed fault plan (None = unarmed).
    fault_plan_digest: Optional[str] = None

    def schedule_digest(self) -> str:
        """Content digest of the schedule itself (who ran where, when)."""
        from repro.parallel.jobspec import stable_digest

        payload = {
            "policy": self.policy,
            "policy_params": self.policy_params,
            "regime": self.regime,
            "runtime_model": self.runtime_model,
            "pool_nodes": self.pool_nodes,
            "jobs": [
                (o.job_id, o.digest, o.start, o.finish, o.killed,
                 o.backfilled, o.shared_peak)
                for o in self.jobs
            ],
        }
        if self.fault_plan_digest is not None:
            payload["faults"] = {
                "plan": self.fault_plan_digest,
                "jobs": [(o.job_id, o.requeues, o.failed)
                         for o in self.jobs],
            }
        return stable_digest(payload, length=16)


class BatchDispatcher:
    """Replay a job trace against *pool_nodes* nodes under *policy*.

    ``runtimes`` injects per-job base runtimes (job_id -> µs) in place of
    the runtime model — tests use it to build exact hand-checkable
    schedules.  ``fault_plan`` arms a ``BATCH``-universe fault timeline;
    ``job_retries`` bounds fault-kill requeues per job; ``restart_cost_us``
    is the checkpoint-resume surcharge each restart owes; ``placement``
    selects ``lowest`` (lowest-id-first, the historical rule) or ``wary``
    (deprioritize recently-failed nodes, ties by id).  ``pricing_store``
    is the directory persisting sim-model prices across processes (see
    :func:`~repro.batch.runtime.base_runtime_us`); prices are pure, so it
    never changes a result.

    The state policies read is indexed and kept current as the dispatcher
    runs instead of being rebuilt at every event:

    * ``queue`` in arrival/requeue order, with a parallel list of enqueue
      serials so a start anywhere in the queue finds its slot by bisection;
    * ``ranked`` — the queue in the policy's time-invariant ``rank_key``
      order, for policies that rank (``priority``);
    * ``releases`` — rigid running jobs by ``(guaranteed_release,
      job_id)``, for EASY's shadow walk;
    * ``_free`` — free up-nodes, sorted; and ``_on_node`` — node ->
      ``{job_id: running job}``, which answers evictions and node returns
      without a scan of ``running``;
    * ``_residency`` — each node's resident count, which orders
      ``least_loaded_nodes`` and gives ``_reprice`` its loads;
    * ``_occupied`` and ``_lost`` — the nodes with a resident, and the
      out-of-service nodes without one, which price busy and lost node
      time at every clock advance.

    Under ``REPRO_SANITIZE=1`` every event ends with an audit of these
    indexes against the ground truth they summarize, of every stored clock
    for canonical form, and of each running rigid job's version against
    its finish event; a rigid start past the tightest latest start still
    promised to it raises at once.
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
        pricing_store: Optional[str] = None,
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
        self.pricing_store = pricing_store
        #: Armed = there is at least one fault to apply.  Every fault-only
        #: code path below is gated on this (or degenerates to a no-op) so
        #: unarmed runs replay the historical dispatcher byte-for-byte.
        self._armed = fault_plan is not None and not fault_plan.is_empty
        self._sanitize = sanitizer_enabled()

        self.now: Exact = 0
        self.queue: List[BatchJob] = []
        self._queue_serials: List[int] = []  # parallel to queue, ascending
        self._queued: Dict[int, int] = {}  # job_id -> enqueue serial
        self._enqueues = 0
        self.ranked: Optional[List[tuple]] = (
            [] if policy.rank_key is not None else None)
        self.running: Dict[int, _Running] = {}
        self.releases: List[Tuple[Exact, int]] = []
        self._free: List[int] = list(range(pool_nodes))  # kept sorted
        self._on_node: List[Dict[int, _Running]] = [
            {} for _ in range(pool_nodes)
        ]
        self._residency: List[int] = [0] * pool_nodes  # len(_on_node[n])
        self._occupied = 0  # nodes with at least one resident
        self._lost = 0  # out-of-service nodes with no resident
        self._node_state: List[str] = [_UP] * pool_nodes
        self._node_failures: List[int] = [0] * pool_nodes
        self._events: list = []
        self._seq = 0
        self._vclock = 0
        #: :meth:`_next_shared_finish`'s answer, valid until a membership
        #: change sets ``_next_stale``.
        self._next_shared: Optional[_Running] = None
        self._next_stale = True
        self._done: Dict[int, JobOutcome] = {}
        self._busy_node_time: Exact = 0
        self._node_lost_time: Exact = 0
        self._promises: Dict[int, Exact] = {}
        self._starts: Dict[int, Exact] = {}
        # Cross-incarnation job state (all empty on an unarmed run).
        self._first_start: Dict[int, Exact] = {}
        self._completed: Dict[int, Exact] = {}
        self._requeue_count: Dict[int, int] = {}
        self._retries_used: Dict[int, int] = {}
        self._wall: Dict[int, Exact] = {}
        self._held: Dict[int, Exact] = {}
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
        return self._residency[node]

    def least_loaded_nodes(self, k: int) -> Tuple[int, ...]:
        """Up to *k* in-service nodes with fewest residents (ties: lowest
        id), in ascending residency, so the last is the most loaded.  May
        return fewer than *k* while nodes are failed/draining — the share
        policy must check the width before placing."""
        state = self._node_state
        # A stable sort of ascending ids by residency breaks ties by id.
        order = sorted(
            [n for n in range(self.pool_nodes) if state[n] == _UP],
            key=self._residency.__getitem__,
        )
        return tuple(order[:k])

    def reclaimable_nodes(self, rj: _Running) -> int:
        """How many of *rj*'s nodes return to service when it releases
        them — the count EASY's shadow arithmetic may bank on.  A node
        that failed or started draining underneath a resident does not
        come back at release."""
        return sum(1 for n in rj.nodes if self._node_state[n] == _UP)

    def record_reservation(self, job_id: int, latest_start: Exact) -> None:
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
        self._admit(rj)
        insort(self.releases, (rj.guaranteed_release, job.job_id))
        if backfilled:
            self.backfills += 1
        promised = self._promises.get(job.job_id)
        if promised is not None and self.now > promised:
            self.head_delays += 1
            if self._sanitize:
                raise InvariantViolation(
                    "batch-easy-promise",
                    f"job {job.job_id} starts at {self.now!r}, after the "
                    f"latest start {promised!r} promised to it",
                    time=self.now)
        self._push(rj.finish_at, _EV_FINISH, job.job_id, rj.version)

    def start_shared(self, job: BatchJob, nodes: Tuple[int, ...]) -> None:
        """Co-locate *job* on *nodes*; every node's capacity is split
        equally among residents, so the co-residents are repriced."""
        assert job.job_id not in self.running
        base = self._base_runtime(job)
        colocated = any(self._on_node[n] for n in nodes)
        rj = _Running(job, tuple(nodes), self.now, base, limit=None,
                      demand=self._incarnation_demand(job, base))
        self._admit(rj)
        if colocated:
            self.colocations += 1
        self._reprice(rj.nodes)

    def _admit(self, rj: _Running) -> None:
        """Move a just-started job from the queue onto its nodes."""
        jid = rj.job.job_id
        self.running[jid] = rj
        on_node = self._on_node
        residency = self._residency
        for n in rj.nodes:
            residents = on_node[n]
            if not residents:
                self._occupied += 1
            residents[jid] = rj
            residency[n] += 1
        self._dequeue(rj.job)
        self._starts[jid] = self.now
        self._first_start.setdefault(jid, self.now)

    def _release(self, rj: _Running) -> None:
        """Take a finished or evicted job off its nodes: rigid nodes still
        in service go back on the free list, shared co-residents are
        repriced by the caller."""
        jid = rj.job.job_id
        del self.running[jid]
        on_node = self._on_node
        residency = self._residency
        for n in rj.nodes:
            residents = on_node[n]
            del residents[jid]
            residency[n] -= 1
            if not residents:
                self._occupied -= 1
                if self._node_state[n] != _UP:
                    self._lost += 1
        if rj.limit is not None:
            del self.releases[bisect_left(self.releases,
                                          (rj.guaranteed_release, jid))]
            for n in rj.nodes:
                if self._node_state[n] == _UP:
                    insort(self._free, n)
        else:
            self._next_stale = True

    def _incarnation_demand(self, job: BatchJob, base: int) -> Exact:
        """Service this start owes: the full base on a first start; on a
        restart, the unfinished fraction plus the checkpoint-resume cost
        (completed work survives eviction)."""
        done = self._completed.get(job.job_id, 0)
        cost = (self.restart_cost_us
                if self._requeue_count.get(job.job_id, 0) else 0)
        demand = base - done + cost
        return demand if demand > 0 else 0

    # -- the queue and its indexes -----------------------------------------

    def _enqueue(self, job: BatchJob) -> None:
        self._enqueues += 1
        self._queued[job.job_id] = self._enqueues
        self.queue.append(job)
        self._queue_serials.append(self._enqueues)
        if self.ranked is not None:
            insort(self.ranked, self.policy.rank_key(job) + (job,))
        self.queue_depth_peak = max(self.queue_depth_peak, len(self.queue))

    def _dequeue(self, job: BatchJob) -> None:
        i = bisect_left(self._queue_serials, self._queued.pop(job.job_id))
        del self.queue[i]
        del self._queue_serials[i]
        if self.ranked is not None:
            del self.ranked[bisect_left(self.ranked,
                                        self.policy.rank_key(job))]

    # -- engine ------------------------------------------------------------

    def dispatch(self) -> BatchResult:
        for job in self.jobs:
            self._push(job.submit, _EV_ARRIVAL, job.job_id, 0)
        if self._armed:
            for idx, ev in enumerate(self.fault_plan.events):
                self._push(ev.at, _EV_FAULT, idx, 0)
        by_id = {job.job_id: job for job in self.jobs}
        events = self._events
        while True:
            rj = self._next_shared_finish()
            if rj is not None and (not events or rj.finish_at <= events[0][0]):
                self._advance(rj.finish_at)
                self._complete(rj)
            elif events:
                when, kind, _seq, job_id, version = heapq.heappop(events)
                if kind == _EV_FINISH:
                    rj = self.running.get(job_id)
                    if rj is None or rj.version != version:
                        continue  # superseded by an eviction
                    self._advance(when)
                    self._complete(rj)
                elif kind == _EV_FAULT:
                    self._advance(when)
                    self._apply_fault(self.fault_plan.events[job_id])
                else:
                    self._advance(when)
                    self._enqueue(by_id[job_id])
            else:
                break
            self.policy.schedule(self)
            if self._sanitize:
                self._audit()
        # Starvation sweep: with the timeline exhausted, anything still
        # queued can never start (the surviving pool is permanently too
        # small for it).  Unreachable unarmed — the ctor width check plus
        # walltime kills guarantee an unarmed queue always drains.
        for job in list(self.queue):
            self._dequeue(job)
            self._fail(job, None)
        result = self._result()
        if self._sanitize:
            self._audit(result)
        return result

    def _next_shared_finish(self) -> Optional[_Running]:
        """The shared job that completes next, or None.

        Shared completions are not heap events: the dispatch loop merges
        this with the heap top, a finish winning a same-instant tie with a
        fault or an arrival.  Ties between shared jobs go to the first in
        ``running`` (start) order, which ``min`` returns.  The scan reruns
        only after a membership change."""
        if self._next_stale:
            self._next_shared = (min(self.running.values(),
                                     key=attrgetter("finish_at"))
                                 if self.running and not self.policy.rigid
                                 else None)
            self._next_stale = False
        return self._next_shared

    def _push(self, when: Exact, kind: int, job_id: int,
              version: int) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, kind, self._seq, job_id, version))

    def _advance(self, when: Exact) -> None:
        dt = when - self.now
        if dt > 0:
            self._busy_node_time += self._occupied * dt
            if self._armed and (self.running or self.queue):
                self._node_lost_time += self._lost_nodes() * dt
            self.now = when

    def _lost_nodes(self) -> int:
        """Out-of-service nodes that are not still finishing a resident
        (a draining node with residents is busy, not lost), as counted by
        ``_release`` and the fault handlers."""
        return self._lost

    def _remaining(self, rj: _Running) -> Exact:
        """Work a shared job still owes at ``now``, settled from its
        predicted finish — the one place sharing divides, hence where
        every non-integral clock comes from.  Exact arithmetic never takes
        it negative; clamp anyway so a future inexact runtime model
        degrades gracefully."""
        left = _divide(rj.finish_at - self.now, rj.load)
        return left if left > 0 else 0

    def _reprice(self, nodes) -> None:
        """Re-time the shared jobs resident on *nodes*, whose membership
        just changed.  Only a job whose load (worst residency over its
        nodes) changed gets a new finish_at: an unchanged load means an
        unchanged rate, so its prediction is already exact."""
        on_node = self._on_node
        residency = self._residency.__getitem__
        seen = set()
        for n in nodes:
            for jid, rj in on_node[n].items():
                if jid in seen:
                    continue
                seen.add(jid)
                load = max(map(residency, rj.nodes))
                if load != rj.load:
                    rj.finish_at = self.now + self._remaining(rj) * load
                    rj.load = load
                    if load > rj.shared_peak:
                        rj.shared_peak = load
        self._next_stale = True

    # -- sanitizer ---------------------------------------------------------

    def _audit(self, result: Optional[BatchResult] = None) -> None:
        """Check every index against the ground truth it summarizes, every
        stored clock for canonical form, and every running rigid job's
        version against the event heap (``REPRO_SANITIZE=1``); given
        the finished *result* of a rigid policy, also check node
        conservation.  Raise :class:`InvariantViolation` on the first
        disagreement."""

        def fail(rule: str, detail: str) -> None:
            raise InvariantViolation(rule, detail, time=self.now)

        running = self.running.values()
        for what, values in (
            ("now", (self.now,)),
            ("busy/lost node time",
             (self._busy_node_time, self._node_lost_time)),
            ("running finish_at", (rj.finish_at for rj in running)),
            ("running demand", (rj.demand for rj in running)),
            ("event heap", (entry[0] for entry in self._events)),
            ("completed work", self._completed.values()),
            ("held wall time", self._wall.values()),
            ("held node time", self._held.values()),
        ):
            for value in values:
                if not (type(value) is int
                        or (type(value) is _Rational and value.d > 1
                            and gcd(value.n, value.d) == 1)):
                    fail("batch-canonical-clock",
                         f"{what} holds {value!r}: an integral clock must "
                         f"be an int, any other a rational in lowest terms")
        if result is not None and self.policy.rigid:
            # Rigid jobs own their nodes outright, so the pool's busy
            # node time is exactly the sum of what the jobs held.  (Not so
            # under sharing: co-residents each count a shared node.)
            held = math.fsum(o.held_node_us for o in result.jobs)
            if held != result.busy_node_us:
                fail("batch-node-conservation",
                     f"busy node-us {result.busy_node_us} != {held} "
                     f"summed over the jobs' held node-us")

        for n in range(self.pool_nodes):
            truth = {jid for jid, rj in self.running.items() if n in rj.nodes}
            if set(self._on_node[n]) != truth:
                fail("batch-node-residents",
                     f"node {n} indexes {sorted(self._on_node[n])}, "
                     f"running jobs on it are {sorted(truth)}")
        residency = [len(residents) for residents in self._on_node]
        if self._residency != residency:
            fail("batch-residency",
                 f"residency counts {self._residency}, residents say "
                 f"{residency}")
        occupied = sum(1 for residents in self._on_node if residents)
        if self._occupied != occupied:
            fail("batch-occupancy",
                 f"counter says {self._occupied} occupied nodes, "
                 f"residents say {occupied}")
        lost = sum(1 for n in range(self.pool_nodes)
                   if self._node_state[n] != _UP and not self._on_node[n])
        if self._lost != lost:
            fail("batch-lost",
                 f"counter says {self._lost} lost nodes, node states and "
                 f"residents say {lost}")
        if self.policy.rigid:
            free = [n for n in range(self.pool_nodes)
                    if self._node_state[n] == _UP and not self._on_node[n]]
            if self._free != free:
                fail("batch-free-list",
                     f"free list {self._free}, unheld up-nodes {free}")
            releases = sorted((rj.guaranteed_release, jid)
                              for jid, rj in self.running.items())
            if self.releases != releases:
                fail("batch-releases",
                     f"release index {self.releases} != {releases}")
        # Each running rigid job's incarnation has a unique version and
        # exactly one live finish event; an eviction leaves older ones.
        finishes = Counter((entry[3], entry[4]) for entry in self._events
                           if entry[1] == _EV_FINISH)
        versions = set()
        for jid, rj in self.running.items():
            if rj.limit is None:
                continue
            if not 0 < rj.version <= self._vclock or rj.version in versions:
                fail("batch-version",
                     f"job {jid} runs as version {rj.version}: versions "
                     f"must be unique and within 1..{self._vclock}")
            versions.add(rj.version)
            if finishes[jid, rj.version] != 1:
                fail("batch-version",
                     f"job {jid} version {rj.version} has "
                     f"{finishes[jid, rj.version]} finish events queued, "
                     f"not 1")
        for jid, version in finishes:
            live = self.running.get(jid)
            newest = live.version if live is not None else self._vclock
            if version > newest:
                fail("batch-version",
                     f"a finish event of job {jid} carries version "
                     f"{version}, newer than {newest}")
        serials = [self._queued.get(job.job_id) for job in self.queue]
        if (serials != self._queue_serials
                or len(self._queued) != len(self.queue)
                or any(a >= b for a, b in zip(serials, serials[1:]))):
            fail("batch-queue",
                 f"queue {[job.job_id for job in self.queue]} has serials "
                 f"{serials}, index holds {self._queue_serials}")
        if self.ranked is not None:
            truth = sorted(self.policy.rank_key(job) + (job,)
                           for job in self.queue)
            if self.ranked != truth:
                fail("batch-rank-index",
                     f"rank index holds {[e[-1].job_id for e in self.ranked]}"
                     f", queue ranks as {[e[-1].job_id for e in truth]}")

    # -- faults ------------------------------------------------------------

    def _apply_fault(self, ev) -> None:
        if ev.kind == FaultKind.NODE_FAIL:
            if self._node_state[ev.node] == _DOWN:
                return  # idempotent: already dead
            # An idle up-node is lost now, an occupied one as the eviction
            # below empties it; a draining idle node was counted already.
            if self._node_state[ev.node] == _UP and not self._on_node[ev.node]:
                self._lost += 1
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
            if not self._on_node[ev.node]:
                self._lost += 1
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
            if not self._on_node[ev.node]:
                self._lost -= 1
                if ev.node not in self._free:
                    insort(self._free, ev.node)

    def _evict_residents(self, node: int, *, preempt: bool) -> None:
        victims = [rj for _jid, rj in sorted(self._on_node[node].items())]
        touched = set()
        for rj in victims:
            touched.update(rj.nodes)
            self._evict(rj, preempt=preempt)
        if victims and not self.policy.rigid:
            self._reprice(touched)

    def _forget_queued_promises(self) -> None:
        """Capacity just changed: reservations promised to still-queued
        jobs were computed against the old pool and must be re-derived by
        the policy, else the tightest-ever audit would hold EASY to a
        shadow the surviving capacity cannot honour."""
        for jid in list(self._promises):
            if jid in self._queued:
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
            executed = rj.demand - self._remaining(rj)
        completed = self._completed.get(jid, 0)
        overhead = rj.demand - (rj.base_runtime - completed)
        useful = executed - overhead
        if useful < 0:
            useful = 0
        done = completed + useful
        self._completed[jid] = (done if done < rj.base_runtime
                                else rj.base_runtime)
        wall = self.now - rj.start
        self._wall[jid] = self._wall.get(jid, 0) + wall
        self._held[jid] = self._held.get(jid, 0) + wall * len(rj.nodes)
        self._peak[jid] = max(self._peak.get(jid, 1), rj.shared_peak)
        self._release(rj)
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
        self._enqueue(job)

    def _fail(self, job: BatchJob, rj: Optional[_Running]) -> None:
        """Terminal non-completion: retries exhausted, or (rj=None) the
        surviving pool can never fit the job."""
        jid = job.job_id
        first = self._first_start.get(jid)
        start = first if first is not None else self.now
        wall = self._wall.get(jid, 0)
        base = rj.base_runtime if rj is not None else 0
        isolated = min(base, job.estimate) if base else job.estimate
        response = self.now - job.submit
        bsld = max(1.0, float(response) / max(float(isolated),
                                              float(self.tau_us)))
        self.failed_jobs += 1
        self._done[jid] = _job_outcome(
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
            held_node_us=float(self._held.get(jid, 0)),
        )

    # -- completion --------------------------------------------------------

    def _complete(self, rj: _Running) -> None:
        job = rj.job
        jid = job.job_id
        killed = rj.limit is not None and rj.demand > rj.limit
        if killed:
            self.kills += 1
        self._release(rj)
        if rj.limit is None:
            self._reprice(rj.nodes)
        start = self._first_start.get(jid, rj.start)
        finish = self.now
        wait = start - job.submit
        runtime = self._wall.get(jid, 0) + (finish - rj.start)
        held = (self._held.get(jid, 0)
                + (finish - rj.start) * len(rj.nodes))
        response = finish - job.submit
        # Bounded slowdown divides by the *isolated* demand, not the held
        # wall time — sharing's dilation must count as stretch, and a killed
        # job's demand is capped at its limit (it never got to owe more).
        isolated = (min(rj.base_runtime, rj.limit) if rj.limit is not None
                    else rj.base_runtime)
        bsld = max(1.0, float(response) / max(float(isolated), float(self.tau_us)))
        self._done[jid] = _job_outcome(
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
            pricing_store=self.pricing_store,
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
    pricing_store: Optional[str] = None,
) -> BatchResult:
    """One-call schedule of *jobs* under a policy named by registry key."""
    disp = BatchDispatcher(
        jobs, pool_nodes, make_policy(policy, **(policy_params or {})),
        regime=regime, runtime_model=runtime_model,
        internode_latency=internode_latency, runtimes=runtimes,
        fault_plan=fault_plan, job_retries=job_retries,
        restart_cost_us=restart_cost_us, placement=placement,
        pricing_store=pricing_store,
    )
    return disp.dispatch()
