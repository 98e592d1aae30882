"""Fault plans: *what* goes wrong and *when*, decided before the run.

A :class:`FaultPlan` is an immutable schedule of :class:`FaultEvent` items.
Plans come from one of three constructors:

* :meth:`FaultPlan.none` — the empty plan (a run with it is bit-identical to
  a fault-free run; asserted by ``tests/test_faults_zero_overhead.py``);
* :meth:`FaultPlan.schedule` — an explicit, hand-written schedule;
* :meth:`FaultPlan.random` — a seeded draw.  The generator uses its own
  private :class:`random.Random`, **never** the simulator's streams, so the
  plan is a pure function of its seed and the workload's random numbers are
  untouched (common-random-numbers discipline across fault configurations).

The plan is data, not behaviour: :class:`repro.faults.injector.FaultInjector`
turns it into simulator events.  ``as_dict``/``digest`` feed the obs
provenance layer so a recorded run names the exact faults it suffered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.task import SchedPolicy
from repro.topology.machine import Machine

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "offline_core_events"]


class FaultKind:
    """The modelled fault classes."""

    #: A CPU dies (hot-unplug): running + queued tasks are force-evacuated.
    CPU_OFFLINE = "cpu_offline"
    #: A previously offlined CPU returns.
    CPU_ONLINE = "cpu_online"
    #: One MPI rank crashes (SIGKILL analog).
    RANK_CRASH = "rank_crash"
    #: A daemon goes runaway: a long uninterrupted compute burst.
    RUNAWAY = "runaway"
    #: A burst of short-lived noise tasks (cron storm analog).
    NOISE_BURST = "noise_burst"
    #: Fail-stop of a whole node: kernel, daemons and ranks all vanish.
    NODE_CRASH = "node_crash"
    #: Straggler: scale a node's effective compute rate for a window.
    NODE_SLOWDOWN = "node_slowdown"
    #: Inflate the internode latency for a window (or one node pair).
    LINK_DEGRADE = "link_degrade"
    #: Fail-stop of a batch-pool node: resident jobs are killed and
    #: requeued by the dispatcher; the node stays out of service until a
    #: ``node_return``.
    NODE_FAIL = "node_fail"
    #: Maintenance drain: no new placements on the node; residents either
    #: finish (default) or are preempted-and-requeued (``preempt=True``).
    NODE_DRAIN = "node_drain"
    #: A failed or drained pool node re-enters service.
    NODE_RETURN = "node_return"

    #: Faults a single :class:`~repro.kernel.kernel.Kernel` can absorb.
    LOCAL = (CPU_OFFLINE, CPU_ONLINE, RANK_CRASH, RUNAWAY, NOISE_BURST)
    #: Faults that only make sense against a multi-node cluster job
    #: (``node_slowdown`` also works single-node: it scales that kernel).
    CLUSTER = (NODE_CRASH, NODE_SLOWDOWN, LINK_DEGRADE)
    #: Faults against the batch layer's node pool (consumed by
    #: :class:`repro.batch.dispatcher.BatchDispatcher`, not by kernels).
    BATCH = (NODE_FAIL, NODE_DRAIN, NODE_RETURN)

    ALL = LOCAL + CLUSTER + BATCH


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  Which fields matter depends on ``kind``:

    * ``cpu_offline`` / ``cpu_online`` — ``cpu``;
    * ``rank_crash`` — ``rank``;
    * ``runaway`` — ``duration`` (µs of compute), ``policy``,
      ``rt_priority``;
    * ``noise_burst`` — ``count`` workers of ``work`` µs each;
    * ``node_crash`` — ``node`` (None = the node this plan is armed on);
    * ``node_slowdown`` — ``factor`` in (0, 1) for ``duration`` µs,
      optional ``node``;
    * ``link_degrade`` — extra ``latency`` µs for ``duration`` µs,
      optional ``node``/``peer`` pair (both None = every link);
    * ``node_fail`` / ``node_return`` — ``node`` (a batch-pool node id);
    * ``node_drain`` — ``node``, plus ``preempt`` (preempt-and-requeue
      residents instead of letting them finish).
    """

    at: int
    kind: str
    cpu: Optional[int] = None
    rank: Optional[int] = None
    duration: int = 0
    policy: str = SchedPolicy.NORMAL
    rt_priority: int = 0
    count: int = 0
    work: int = 0
    node: Optional[int] = None
    factor: float = 1.0
    latency: int = 0
    peer: Optional[int] = None
    preempt: bool = False

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("fault time cannot be negative")
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in (FaultKind.CPU_OFFLINE, FaultKind.CPU_ONLINE):
            if self.cpu is None or self.cpu < 0:
                raise ValueError(f"{self.kind} needs a cpu")
        elif self.kind == FaultKind.RANK_CRASH:
            if self.rank is None or self.rank < 0:
                raise ValueError("rank_crash needs a rank index")
        elif self.kind == FaultKind.RUNAWAY:
            if self.duration <= 0:
                raise ValueError("runaway needs a positive duration")
            if self.policy in SchedPolicy.RT and not 1 <= self.rt_priority <= 99:
                raise ValueError("an RT runaway needs rt_priority in [1, 99]")
        elif self.kind == FaultKind.NOISE_BURST:
            if self.count <= 0 or self.work <= 0:
                raise ValueError("noise_burst needs positive count and work")
        elif self.kind == FaultKind.NODE_CRASH:
            if self.node is not None and self.node < 0:
                raise ValueError("node_crash node index cannot be negative")
        elif self.kind == FaultKind.NODE_SLOWDOWN:
            if self.duration <= 0:
                raise ValueError("node_slowdown needs a positive duration")
            if not 0.0 < self.factor < 1.0:
                raise ValueError("node_slowdown needs factor in (0, 1)")
            if self.node is not None and self.node < 0:
                raise ValueError("node_slowdown node index cannot be negative")
        elif self.kind == FaultKind.LINK_DEGRADE:
            if self.duration <= 0:
                raise ValueError("link_degrade needs a positive duration")
            if self.latency <= 0:
                raise ValueError("link_degrade needs a positive extra latency")
            if self.node is not None and self.node < 0:
                raise ValueError("link_degrade node index cannot be negative")
            if self.peer is not None:
                if self.peer < 0:
                    raise ValueError("link_degrade peer index cannot be negative")
                if self.node is None:
                    raise ValueError("link_degrade peer needs a node too")
        elif self.kind in (FaultKind.NODE_FAIL, FaultKind.NODE_DRAIN,
                           FaultKind.NODE_RETURN):
            if self.node is None or self.node < 0:
                raise ValueError(f"{self.kind} needs a pool node index")

    def as_dict(self) -> Dict:
        out: Dict = {"at": self.at, "kind": self.kind}
        if self.kind in (FaultKind.CPU_OFFLINE, FaultKind.CPU_ONLINE):
            out["cpu"] = self.cpu
        elif self.kind == FaultKind.RANK_CRASH:
            out["rank"] = self.rank
        elif self.kind == FaultKind.RUNAWAY:
            out.update(
                duration=self.duration,
                policy=self.policy,
                rt_priority=self.rt_priority,
            )
        elif self.kind == FaultKind.NOISE_BURST:
            out.update(count=self.count, work=self.work)
        elif self.kind == FaultKind.NODE_CRASH:
            out["node"] = self.node
        elif self.kind == FaultKind.NODE_SLOWDOWN:
            out.update(node=self.node, factor=self.factor, duration=self.duration)
        elif self.kind == FaultKind.LINK_DEGRADE:
            out.update(
                node=self.node,
                peer=self.peer,
                latency=self.latency,
                duration=self.duration,
            )
        elif self.kind in (FaultKind.NODE_FAIL, FaultKind.NODE_RETURN):
            out["node"] = self.node
        elif self.kind == FaultKind.NODE_DRAIN:
            out.update(node=self.node, preempt=self.preempt)
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault schedule for one run."""

    events: Tuple[FaultEvent, ...] = ()
    label: str = "none"
    #: Seed of :meth:`random` plans (None for explicit schedules).
    seed: Optional[int] = None

    # ---------------------------------------------------------- constructors

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: inject nothing, perturb nothing."""
        return cls()

    @classmethod
    def schedule(cls, events: Sequence[FaultEvent], label: str = "explicit") -> "FaultPlan":
        """An explicit schedule (events may be given in any order)."""
        ordered = tuple(sorted(events, key=lambda e: e.at))
        return cls(events=ordered, label=label)

    @classmethod
    def mtbf(
        cls,
        seed: int,
        *,
        horizon: int,
        n_nodes: int,
        mtbf_us: int,
        repair_us: Optional[int] = None,
    ) -> "FaultPlan":
        """Seeded per-node fail/repair process for the batch node pool.

        Each pool node draws independent exponential inter-failure gaps
        (mean *mtbf_us*) from a private ``random.Random(seed)``; every
        ``node_fail`` is paired with a ``node_return`` *repair_us* later.
        ``repair_us=None`` makes failures permanent (one per node at most).
        The plan is a pure function of ``(seed, horizon, n_nodes, mtbf_us,
        repair_us)`` so its :meth:`digest` is reproducible anywhere.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if n_nodes <= 0:
            raise ValueError("mtbf plans need a positive node count")
        if mtbf_us <= 0:
            raise ValueError("mtbf_us must be positive")
        if repair_us is not None and repair_us <= 0:
            raise ValueError("repair_us must be positive (or None)")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for node in range(n_nodes):
            t = 0
            while True:
                t += max(1, int(rng.expovariate(1.0 / mtbf_us)))
                if t > horizon:
                    break
                events.append(
                    FaultEvent(at=t, kind=FaultKind.NODE_FAIL, node=node)
                )
                if repair_us is None:
                    break  # fail-stop forever: at most one failure per node
                t += repair_us
                events.append(
                    FaultEvent(at=t, kind=FaultKind.NODE_RETURN, node=node)
                )
        ordered = tuple(sorted(events, key=lambda e: e.at))
        return cls(
            events=ordered,
            label=f"mtbf[{seed}]x{n_nodes}@{mtbf_us}",
            seed=seed,
        )

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        horizon: int,
        n_cpus: int,
        n_ranks: int = 0,
        n_nodes: int = 0,
        n_faults: int = 3,
        kinds: Sequence[str] = FaultKind.LOCAL,
        offline_recovery: Optional[int] = None,
    ) -> "FaultPlan":
        """Draw *n_faults* faults uniformly over ``[horizon//10, horizon]``.

        Uses a private ``random.Random(seed)`` so the draw never touches the
        simulator's RNG streams.  Every ``cpu_offline`` is paired with a
        ``cpu_online`` *offline_recovery* µs later (default: a tenth of the
        horizon) so random plans cannot grind a machine down to one CPU
        permanently.

        The default *kinds* is :data:`FaultKind.LOCAL` (not ``ALL``): the
        draw sequence depends on the usable-kinds list, so widening the
        default when the cluster kinds were added would have silently
        changed every existing seeded plan.  Pass cluster kinds explicitly
        to draw them.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if n_faults < 0:
            raise ValueError("n_faults cannot be negative")
        for kind in kinds:
            if kind not in FaultKind.ALL:
                raise ValueError(f"unknown fault kind {kind!r}")
        usable = [
            k for k in kinds
            if not (k == FaultKind.RANK_CRASH and n_ranks == 0)
            and not (k in FaultKind.BATCH and n_nodes == 0)
            and k != FaultKind.CPU_ONLINE  # paired with offline, not drawn
            and k != FaultKind.NODE_RETURN  # paired with fail/drain, not drawn
        ]
        if not usable:
            raise ValueError("no usable fault kinds")
        if offline_recovery is None:
            offline_recovery = max(1, horizon // 10)
        rng = random.Random(seed)
        lo = max(1, horizon // 10)
        events: List[FaultEvent] = []
        for _ in range(n_faults):
            at = rng.randint(lo, horizon)
            kind = rng.choice(usable)
            if kind == FaultKind.CPU_OFFLINE:
                cpu = rng.randrange(n_cpus)
                events.append(FaultEvent(at=at, kind=kind, cpu=cpu))
                events.append(
                    FaultEvent(
                        at=at + offline_recovery,
                        kind=FaultKind.CPU_ONLINE,
                        cpu=cpu,
                    )
                )
            elif kind == FaultKind.RANK_CRASH:
                events.append(
                    FaultEvent(at=at, kind=kind, rank=rng.randrange(n_ranks))
                )
            elif kind == FaultKind.RUNAWAY:
                events.append(
                    FaultEvent(
                        at=at,
                        kind=kind,
                        duration=rng.randint(horizon // 20 + 1, horizon // 4 + 1),
                    )
                )
            elif kind == FaultKind.NOISE_BURST:
                events.append(
                    FaultEvent(
                        at=at,
                        kind=kind,
                        count=rng.randint(2, 8),
                        work=rng.randint(500, 5000),
                    )
                )
            elif kind == FaultKind.NODE_CRASH:
                # node=None: the crash targets whichever node arms the plan.
                events.append(FaultEvent(at=at, kind=kind))
            elif kind == FaultKind.NODE_SLOWDOWN:
                events.append(
                    FaultEvent(
                        at=at,
                        kind=kind,
                        factor=round(rng.uniform(0.3, 0.8), 3),
                        duration=rng.randint(horizon // 20 + 1, horizon // 4 + 1),
                    )
                )
            elif kind in (FaultKind.NODE_FAIL, FaultKind.NODE_DRAIN):
                node = rng.randrange(n_nodes)
                preempt = kind == FaultKind.NODE_DRAIN and rng.random() < 0.5
                events.append(
                    FaultEvent(at=at, kind=kind, node=node, preempt=preempt)
                )
                events.append(
                    FaultEvent(
                        at=at + offline_recovery,
                        kind=FaultKind.NODE_RETURN,
                        node=node,
                    )
                )
            else:  # LINK_DEGRADE
                events.append(
                    FaultEvent(
                        at=at,
                        kind=kind,
                        latency=rng.randint(100, 2000),
                        duration=rng.randint(horizon // 20 + 1, horizon // 4 + 1),
                    )
                )
        ordered = tuple(sorted(events, key=lambda e: e.at))
        return cls(events=ordered, label=f"random[{seed}]", seed=seed)

    # -------------------------------------------------------------- queries

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def as_dict(self) -> Dict:
        """JSON-ready description (for provenance records)."""
        return {
            "label": self.label,
            "seed": self.seed,
            "events": [e.as_dict() for e in self.events],
        }

    def digest(self) -> str:
        """Short stable digest naming this exact plan.

        Computed once per instance and kept in the instance ``__dict__``
        under ``_digest``, outside the dataclass fields, so ``==``,
        ``hash``, :func:`dataclasses.asdict` and the spec digests built on
        it never see it (the plan is immutable: a tuple of frozen events)."""
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        from repro.obs.provenance import config_digest

        cached = self.__dict__["_digest"] = config_digest(self.as_dict())
        return cached


def offline_core_events(
    machine: Machine, k: int, at: int, *, online_after: Optional[int] = None
) -> List[FaultEvent]:
    """Offline the last *k* whole cores of *machine*, starting at *at*.

    Cores go last first, so CPU 0 (rank 0's usual home) survives; every
    SMT thread of each core goes offline, one every 200 µs (the threads
    of a core do not vanish in the same microsecond).  With
    *online_after*, each CPU's ``cpu_online`` event follows its own
    ``cpu_offline`` that many µs later.  Events come out CPU by CPU
    (offline, then online): :meth:`FaultPlan.schedule` sorts stably, so
    this order is part of the plan's digest.
    """
    cores = list(machine.cores())
    if k >= len(cores):
        raise ValueError(f"cannot offline {k} of {len(cores)} cores")
    cpus = [
        t.cpu_id for core in reversed(cores[len(cores) - k:]) for t in core.threads
    ]
    events: List[FaultEvent] = []
    for i, cpu in enumerate(cpus):
        off_at = at + i * 200
        events.append(FaultEvent(at=off_at, kind=FaultKind.CPU_OFFLINE, cpu=cpu))
        if online_after is not None:
            events.append(FaultEvent(
                at=off_at + online_after, kind=FaultKind.CPU_ONLINE, cpu=cpu,
            ))
    return events
