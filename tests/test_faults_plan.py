"""FaultPlan / FaultEvent / FaultTolerance: the fault schedule as data."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultTolerance
from repro.faults.plan import offline_core_events


# ------------------------------------------------------------- FaultEvent

def test_event_validation_per_kind():
    with pytest.raises(ValueError):
        FaultEvent(at=-1, kind=FaultKind.CPU_OFFLINE, cpu=0)
    with pytest.raises(ValueError):
        FaultEvent(at=0, kind="meteor_strike")
    with pytest.raises(ValueError):
        FaultEvent(at=0, kind=FaultKind.CPU_OFFLINE)  # needs cpu
    with pytest.raises(ValueError):
        FaultEvent(at=0, kind=FaultKind.RANK_CRASH)  # needs rank
    with pytest.raises(ValueError):
        FaultEvent(at=0, kind=FaultKind.RUNAWAY, duration=0)
    with pytest.raises(ValueError):
        FaultEvent(at=0, kind=FaultKind.NOISE_BURST, count=0, work=100)


def test_rt_runaway_needs_priority():
    from repro.kernel.task import SchedPolicy

    with pytest.raises(ValueError):
        FaultEvent(at=0, kind=FaultKind.RUNAWAY, duration=100,
                   policy=SchedPolicy.FIFO, rt_priority=0)
    event = FaultEvent(at=0, kind=FaultKind.RUNAWAY, duration=100,
                       policy=SchedPolicy.FIFO, rt_priority=50)
    assert event.rt_priority == 50


def test_event_as_dict_carries_only_relevant_fields():
    offline = FaultEvent(at=5, kind=FaultKind.CPU_OFFLINE, cpu=3)
    assert offline.as_dict() == {"at": 5, "kind": "cpu_offline", "cpu": 3}
    crash = FaultEvent(at=9, kind=FaultKind.RANK_CRASH, rank=2)
    assert crash.as_dict() == {"at": 9, "kind": "rank_crash", "rank": 2}


# -------------------------------------------------------------- FaultPlan

def test_empty_plan():
    plan = FaultPlan.none()
    assert plan.is_empty
    assert len(plan) == 0
    assert plan.label == "none"


def test_schedule_sorts_by_time():
    plan = FaultPlan.schedule([
        FaultEvent(at=300, kind=FaultKind.CPU_ONLINE, cpu=1),
        FaultEvent(at=100, kind=FaultKind.CPU_OFFLINE, cpu=1),
    ])
    assert [e.at for e in plan.events] == [100, 300]
    assert not plan.is_empty


def test_random_plan_is_deterministic():
    kwargs = dict(horizon=1_000_000, n_cpus=8, n_ranks=8, n_faults=5)
    a = FaultPlan.random(42, **kwargs)
    b = FaultPlan.random(42, **kwargs)
    c = FaultPlan.random(43, **kwargs)
    assert a.events == b.events
    assert a.digest() == b.digest()
    assert a.events != c.events
    assert a.seed == 42 and a.label == "random[42]"


def test_random_plan_pairs_offline_with_online():
    plan = FaultPlan.random(
        7, horizon=1_000_000, n_cpus=8, n_faults=10,
        kinds=[FaultKind.CPU_OFFLINE], offline_recovery=5_000,
    )
    offlines = [e for e in plan.events if e.kind == FaultKind.CPU_OFFLINE]
    onlines = [e for e in plan.events if e.kind == FaultKind.CPU_ONLINE]
    assert len(offlines) == len(onlines) == 10
    recoveries = sorted((e.cpu, e.at) for e in onlines)
    deaths = sorted((e.cpu, e.at + 5_000) for e in offlines)
    assert recoveries == deaths


def test_random_plan_never_draws_rank_crash_without_ranks():
    plan = FaultPlan.random(3, horizon=100_000, n_cpus=4, n_ranks=0, n_faults=20)
    assert all(e.kind != FaultKind.RANK_CRASH for e in plan.events)


def test_random_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FaultPlan.random(0, horizon=0, n_cpus=4)
    with pytest.raises(ValueError):
        FaultPlan.random(0, horizon=100, n_cpus=4, kinds=["sharknado"])


def test_plan_digest_stable_across_processes():
    # The digest is a pure function of the plan content (sha256 of the
    # sorted-key JSON), so it can name plans in provenance records.
    plan = FaultPlan.schedule([FaultEvent(at=10, kind=FaultKind.CPU_OFFLINE, cpu=0)])
    assert plan.digest() == FaultPlan.schedule(
        [FaultEvent(at=10, kind=FaultKind.CPU_OFFLINE, cpu=0)]
    ).digest()
    assert len(plan.digest()) == 16


# ---------------------------------------------------- offline_core_events

@pytest.mark.parametrize("k, cpus", [
    (0, []),
    (1, [6, 7]),
    (2, [6, 7, 4, 5]),
    (3, [6, 7, 4, 5, 2, 3]),
])
def test_offline_core_events_last_core_first_200us_apart(js22, k, cpus):
    events = offline_core_events(js22, k, 1_000)
    assert [e.cpu for e in events] == cpus
    assert [e.at for e in events] == [1_000 + 200 * i for i in range(len(cpus))]
    assert all(e.kind == FaultKind.CPU_OFFLINE for e in events)


def test_offline_core_events_online_follows_each_offline(js22):
    events = offline_core_events(js22, 2, 1_000, online_after=5_000)
    assert [(e.kind, e.cpu, e.at) for e in events] == [
        (kind, cpu, at + delay)
        for cpu, at in ((6, 1_000), (7, 1_200), (4, 1_400), (5, 1_600))
        for kind, delay in ((FaultKind.CPU_OFFLINE, 0),
                            (FaultKind.CPU_ONLINE, 5_000))
    ]


@pytest.mark.parametrize("k", [4, 5])
def test_offline_core_events_keep_one_core(js22, k):
    with pytest.raises(ValueError, match=f"^cannot offline {k} of 4 cores$"):
        offline_core_events(js22, k, 1_000)


# --------------------------------------------------------- FaultTolerance

def test_tolerance_validation():
    with pytest.raises(ValueError):
        FaultTolerance(mode="panic")
    with pytest.raises(ValueError):
        FaultTolerance(detection_timeout=0)
    with pytest.raises(ValueError):
        FaultTolerance(checkpoint_every=-1)
    ft = FaultTolerance(mode="restart", checkpoint_every=3)
    assert ft.as_dict()["mode"] == "restart"
