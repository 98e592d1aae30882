"""The batch dispatcher's index audit under ``REPRO_SANITIZE=1``.

With the sanitizer on, the dispatcher checks after every event that the
indexes it schedules from agree with the ground truth they summarize: the
node -> resident map with ``running``, the per-node residency counts with
that map, the lost-node count with the node states and residents, the
sorted free list with the unheld up-nodes, the release index with the
running rigid jobs, and the rank index (and the queue's enqueue serials)
with the queue.  Each running rigid job must hold a unique version no
newer than the version clock, with exactly one finish event for it on the
heap.  It also checks that every stored clock is canonical (an ``int``,
or a non-integral rational in lowest terms), and at the end of a rigid
schedule that the pool's busy node time equals the node time the jobs
held.  A rigid start later than the tightest latest start still promised
to that job fails at once.  A clean run must be bit-identical to an
unsanitized one; a corrupted index, clock or promise must fail loudly
with :class:`~repro.kernel.invariants.InvariantViolation`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro.batch.dispatcher as dispatcher_mod
from repro.batch.dispatcher import BatchDispatcher, simulate_batch
from repro.batch.policies import make_policy
from repro.batch.workload import WorkloadConfig, generate_trace
from repro.faults.plan import FaultPlan
from repro.kernel.invariants import SANITIZE_ENV_VAR, InvariantViolation

POLICIES = ("fcfs", "easy", "priority", "share")


def _trace():
    return generate_trace(
        WorkloadConfig(n_jobs=40, interarrival_us=1_500, max_nodes=4), 3
    )


def _plan(trace):
    horizon = trace[-1].submit
    return FaultPlan.mtbf(3, horizon=horizon, n_nodes=8,
                          mtbf_us=horizon // 2, repair_us=horizon // 20)


@pytest.mark.parametrize("policy", POLICIES)
def test_sanitized_run_is_bit_identical(policy, monkeypatch):
    trace = _trace()
    kw = dict(runtime_model="analytic", fault_plan=_plan(trace),
              job_retries=8)
    monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
    bare = simulate_batch(trace, 8, policy, **kw)
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    sanitized = simulate_batch(trace, 8, policy, **kw)
    assert sanitized == bare
    assert sanitized.schedule_digest() == bare.schedule_digest()


class _Corrupting:
    """Wrap a policy; after its first decision that leaves a job running,
    damage one dispatcher index the way a missed update would."""

    def __init__(self, name: str, damage) -> None:
        self.inner = make_policy(name)
        self.damage = damage
        self.done = False

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def schedule(self, disp) -> None:
        self.inner.schedule(disp)
        if not self.done and disp.running and disp.queue:
            self.done = True
            self.damage(disp)


def _forget_resident(disp):
    rj = next(iter(disp.running.values()))
    del disp._on_node[rj.nodes[0]][rj.job.job_id]


def _leak_free_node(disp):
    rj = next(iter(disp.running.values()))
    disp._free.append(rj.nodes[0])


def _drop_ranked(disp):
    disp.ranked.pop()


def _drop_release(disp):
    disp.releases.pop()


def _integral_fraction_now(disp):
    disp.now = Fraction(disp.now)


def _integral_fraction_demand(disp):
    rj = next(iter(disp.running.values()))
    rj.demand = Fraction(rj.demand)  # unarmed, every demand is a whole base


def _unreduced_now(disp):
    # 2/4: the rational constructor would never build it.
    q = object.__new__(dispatcher_mod._Rational)
    q.n, q.d = 2, 4
    disp.now = q


def _miscount_residents(disp):
    rj = next(iter(disp.running.values()))
    disp._residency[rj.nodes[0]] += 1


def _duplicate_finish(disp):
    rj = next(iter(disp.running.values()))
    disp._push(rj.finish_at, dispatcher_mod._EV_FINISH, rj.job.job_id,
               rj.version)


def _future_version(disp):
    rj = next(iter(disp.running.values()))
    rj.version = disp._vclock + 1


def _lose_busy_time(disp):
    disp._busy_node_time -= 1


def _miscount_lost(disp):
    disp._lost += 1


def _forge_promise(disp):
    # A latest start already in the past: the job's start must break it.
    disp._promises[disp.queue[0].job_id] = disp.now - 1


@pytest.mark.parametrize("policy,damage,rule", [
    ("fcfs", _forget_resident, "batch-node-residents"),
    ("share", _forget_resident, "batch-node-residents"),
    ("easy", _leak_free_node, "batch-free-list"),
    ("easy", _drop_release, "batch-releases"),
    ("priority", _drop_ranked, "batch-rank-index"),
    ("fcfs", _integral_fraction_now, "batch-canonical-clock"),
    ("share", _integral_fraction_demand, "batch-canonical-clock"),
    ("fcfs", _unreduced_now, "batch-canonical-clock"),
    ("share", _miscount_residents, "batch-residency"),
    ("fcfs", _duplicate_finish, "batch-version"),
    ("easy", _future_version, "batch-version"),
    ("easy", _lose_busy_time, "batch-node-conservation"),
    ("priority", _lose_busy_time, "batch-node-conservation"),
    ("fcfs", _miscount_lost, "batch-lost"),
    ("easy", _forge_promise, "batch-easy-promise"),
])
def test_corrupted_index_is_caught(policy, damage, rule, monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    disp = BatchDispatcher(_trace(), 8, _Corrupting(policy, damage),
                           runtime_model="analytic")
    with pytest.raises(InvariantViolation) as err:
        disp.dispatch()
    assert err.value.rule == rule


def test_non_integral_clock_prints_as_a_ratio(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    disp = BatchDispatcher(_trace(), 8, _Corrupting("fcfs", _unreduced_now),
                           runtime_model="analytic")
    with pytest.raises(InvariantViolation, match=r"t=2/4us.*holds 2/4"):
        disp.dispatch()


def test_conservation_is_not_claimed_under_sharing(monkeypatch):
    # Co-residents each count a shared node, so Σ held exceeds busy time
    # under share; the sanitizer must not hold share to the rigid law.
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    result = simulate_batch(_trace(), 8, "share", runtime_model="analytic")
    assert result.colocations > 0
    assert sum(o.held_node_us for o in result.jobs) > result.busy_node_us
