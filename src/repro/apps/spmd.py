"""SPMD phase programs.

A :class:`Program` is the per-rank script every MPI process executes: an
ordered list of :class:`Phase` objects.  All ranks run the same program
(Single Program, Multiple Data); collective sync phases couple them.

Phase kinds
-----------
``COMPUTE``
    ``work`` µs of CPU work (per-rank log-normal jitter of ``jitter_sigma``
    models data-dependent imbalance).
``SYNC``
    A collective (barrier / allreduce / alltoall — they differ here only in
    ``latency`` and arrival cost).  Early ranks wait in the MPI progress
    loop: ``wait_mode="spin"`` (the MPI-library default the counter baseline
    of Table Ib implies) or ``wait_mode="block"``.
``BLOCKIO``
    A blocking kernel service (connection setup, file I/O during MPI_Init):
    the rank sleeps ~Exp(``wait_mean``).  These are the paper's "mode
    switches [that] are necessary for correct application behavior and
    should be considered part of an application's execution" — they produce
    the irreducible ~350 context switches of Table Ib.

Two marker flags on SYNC phases, ``timer_start`` / ``timer_stop``, delimit
the NAS-style timed section: reported execution time excludes setup, like
the benchmarks' own clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.units import msecs

__all__ = ["PhaseKind", "Phase", "Program"]


class PhaseKind:
    COMPUTE = "compute"
    SYNC = "sync"
    BLOCKIO = "blockio"

    ALL = (COMPUTE, SYNC, BLOCKIO)


@dataclass(frozen=True)
class Phase:
    """One step of the per-rank script."""

    kind: str
    #: COMPUTE: mean work µs.
    work: int = 0
    #: COMPUTE: per-rank log-normal jitter sigma.
    jitter_sigma: float = 0.0
    #: SYNC: latency between last arrival and release, µs.
    latency: int = 20
    #: SYNC: CPU cost of processing the arrival (pack/unpack), µs.
    arrival_cost: int = 5
    #: SYNC: how early ranks wait.  "spin" is really spin-then-block
    #: (MPICH-style): a rank that has waited longer than ``spin_threshold``
    #: gives up the CPU.  "block" sleeps immediately.
    wait_mode: str = "spin"
    #: SYNC: spin-wait budget before falling back to blocking, µs.
    spin_threshold: int = 1200
    #: BLOCKIO: mean sleep, µs (exponentially distributed).
    wait_mean: int = 500
    #: SYNC markers delimiting the app-reported timed section.
    timer_start: bool = False
    timer_stop: bool = False
    #: Label for traces.
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PhaseKind.ALL:
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.kind == PhaseKind.COMPUTE and self.work <= 0:
            raise ValueError("compute phase needs positive work")
        if self.kind == PhaseKind.SYNC and self.wait_mode not in ("spin", "block"):
            raise ValueError("wait_mode must be 'spin' or 'block'")
        if self.spin_threshold <= 0:
            raise ValueError("spin_threshold must be positive")
        if self.kind == PhaseKind.BLOCKIO and self.wait_mean <= 0:
            raise ValueError("blockio phase needs positive wait_mean")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma cannot be negative")


@dataclass(frozen=True)
class Program:
    """An immutable per-rank phase script."""

    phases: Tuple[Phase, ...]
    name: str = "app"
    #: Per-run correlated compute-speed jitter (machine condition, memory
    #: layout): one log-normal factor per run applied to all compute work.
    run_jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a program needs at least one phase")
        starts = sum(1 for p in self.phases if p.timer_start)
        stops = sum(1 for p in self.phases if p.timer_stop)
        if starts > 1 or stops > 1:
            raise ValueError("at most one timer_start and one timer_stop marker")

    @property
    def n_syncs(self) -> int:
        return sum(1 for p in self.phases if p.kind == PhaseKind.SYNC)

    @property
    def total_compute(self) -> int:
        return sum(p.work for p in self.phases if p.kind == PhaseKind.COMPUTE)

    # ------------------------------------------------------------- builders

    @staticmethod
    def iterative(
        *,
        name: str,
        n_iters: int,
        iter_work: int,
        sync_latency: int = 20,
        jitter_sigma: float = 0.0,
        run_jitter_sigma: float = 0.0,
        init_ops: int = 14,
        init_wait_mean: int = 500,
        startup_work: int = msecs(3),
        finalize_ops: int = 3,
        arrival_cost: int = 5,
        wait_mode: str = "spin",
        spin_threshold: int = 1200,
    ) -> "Program":
        """The canonical NAS shape:

        startup compute → MPI_Init (blocking ops) → start-timer barrier →
        *n_iters* × (compute + sync) → stop-timer barrier → MPI_Finalize.
        """
        if n_iters < 1:
            raise ValueError("need at least one iteration")
        phases: List[Phase] = [
            Phase(PhaseKind.COMPUTE, work=startup_work, label="startup")
        ]
        for i in range(init_ops):
            phases.append(
                Phase(PhaseKind.BLOCKIO, wait_mean=init_wait_mean, label=f"init{i}")
            )
        phases.append(
            Phase(
                PhaseKind.SYNC,
                latency=sync_latency,
                arrival_cost=arrival_cost,
                wait_mode=wait_mode,
                spin_threshold=spin_threshold,
                timer_start=True,
                label="timer-start",
            )
        )
        for i in range(n_iters):
            phases.append(
                Phase(
                    PhaseKind.COMPUTE,
                    work=iter_work,
                    jitter_sigma=jitter_sigma,
                    label=f"iter{i}",
                )
            )
            is_last = i == n_iters - 1
            phases.append(
                Phase(
                    PhaseKind.SYNC,
                    latency=sync_latency,
                    arrival_cost=arrival_cost,
                    wait_mode=wait_mode,
                    spin_threshold=spin_threshold,
                    timer_stop=is_last,
                    label=f"sync{i}",
                )
            )
        for i in range(finalize_ops):
            phases.append(
                Phase(PhaseKind.BLOCKIO, wait_mean=init_wait_mean, label=f"fini{i}")
            )
        return Program(tuple(phases), name=name, run_jitter_sigma=run_jitter_sigma)
