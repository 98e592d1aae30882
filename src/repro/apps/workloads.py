"""Workload archetypes beyond the NAS suite.

§II motivates HPL with the general shape of HPC applications — "a cyclic
alternation between a computing phase ... and a synchronization phase" —
but real codes differ in how rigidly they couple.  This library provides
the standard archetypes as :class:`~repro.apps.spmd.Program` factories, so
users can test scheduler policies against their own application's shape:

* :func:`bulk_synchronous` — the NAS shape: compute, global barrier, repeat;
* :func:`stencil_with_checkpoints` — halo exchanges plus periodic blocking
  checkpoint I/O (the configuration where even HPL must let I/O daemons in);
* :func:`pipeline` — wavefront/pipelined codes (lu-like): very fine
  synchronization, the most noise-amplifying shape;
* :func:`parameter_sweep_batch` — embarrassingly parallel batches (ep-like):
  one long compute, one final reduction — the least OS-sensitive shape;
* :func:`irregular_bsp` — BSP with heavy per-phase load imbalance (jitter),
  where barrier waits dominate and spin-vs-block policy matters most.

Each factory returns a plain Program: compose with any kernel, machine, and
noise profile via :func:`repro.experiments.runner.run_program`.
"""

from __future__ import annotations

from typing import List

from repro.units import msecs
from repro.apps.spmd import Phase, PhaseKind, Program

__all__ = [
    "bulk_synchronous",
    "stencil_with_checkpoints",
    "pipeline",
    "parameter_sweep_batch",
    "irregular_bsp",
]


def _init_phases(init_ops: int, wait_mean: int, startup_work: int) -> List[Phase]:
    phases = [Phase(PhaseKind.COMPUTE, work=startup_work, label="startup")]
    phases += [
        Phase(PhaseKind.BLOCKIO, wait_mean=wait_mean, label=f"init{i}")
        for i in range(init_ops)
    ]
    return phases


def bulk_synchronous(
    *,
    n_iters: int = 50,
    iter_work: int = msecs(10),
    jitter_sigma: float = 0.003,
    sync_latency: int = 25,
    name: str = "bsp",
) -> Program:
    """The canonical BSP shape (what the NAS models specialize)."""
    return Program.iterative(
        name=name,
        n_iters=n_iters,
        iter_work=iter_work,
        jitter_sigma=jitter_sigma,
        sync_latency=sync_latency,
    )


def stencil_with_checkpoints(
    *,
    n_iters: int = 40,
    iter_work: int = msecs(8),
    checkpoint_every: int = 10,
    checkpoint_mean: int = msecs(4),
    name: str = "stencil",
) -> Program:
    """Halo-exchange stencil with periodic blocking checkpoints.

    The checkpoints are the one place a well-behaved HPC node *wants* the
    CFS class to run (flush daemons); under HPL they are exactly the gaps
    where starved daemons catch up.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    phases = _init_phases(6, 400, msecs(3))
    phases.append(Phase(PhaseKind.SYNC, latency=30, timer_start=True, label="start"))
    for i in range(n_iters):
        phases.append(
            Phase(PhaseKind.COMPUTE, work=iter_work, jitter_sigma=0.01,
                  label=f"stencil{i}")
        )
        phases.append(
            Phase(PhaseKind.SYNC, latency=40, arrival_cost=15,
                  timer_stop=(i == n_iters - 1), label=f"halo{i}")
        )
        if i != n_iters - 1 and (i + 1) % checkpoint_every == 0:
            phases.append(
                Phase(PhaseKind.BLOCKIO, wait_mean=checkpoint_mean,
                      label=f"ckpt{i}")
            )
    return Program(tuple(phases), name=name)


def pipeline(
    *,
    n_waves: int = 300,
    wave_work: int = msecs(1),
    name: str = "pipeline",
) -> Program:
    """A wavefront/pipelined sweep (lu-like): hundreds of tiny
    compute/exchange pairs — the most noise-amplifying shape, since every
    disturbance anywhere stalls every subsequent wave."""
    return Program.iterative(
        name=name,
        n_iters=n_waves,
        iter_work=wave_work,
        jitter_sigma=0.002,
        sync_latency=12,
        arrival_cost=4,
        spin_threshold=1500,
    )


def parameter_sweep_batch(
    *,
    chunk_work: int = msecs(500),
    n_chunks: int = 4,
    name: str = "sweep-batch",
) -> Program:
    """Embarrassingly parallel batch (ep-like): long independent compute
    chunks, a reduction at the end of each — minimal coupling, the shape on
    which OS noise is *hardest* to see per §III's Amdahl argument."""
    return Program.iterative(
        name=name,
        n_iters=n_chunks,
        iter_work=chunk_work,
        jitter_sigma=0.001,
        sync_latency=40,
        spin_threshold=10_000,
    )


def irregular_bsp(
    *,
    n_iters: int = 30,
    iter_work: int = msecs(12),
    imbalance_sigma: float = 0.25,
    name: str = "irregular",
) -> Program:
    """BSP with strong data-dependent imbalance: per-rank per-phase work
    varies by ``imbalance_sigma`` (log-normal).  Barrier waits dominate, so
    spin-vs-block and what runs in the waits decide performance."""
    if imbalance_sigma <= 0:
        raise ValueError("an irregular workload needs positive imbalance")
    return Program.iterative(
        name=name,
        n_iters=n_iters,
        iter_work=iter_work,
        jitter_sigma=imbalance_sigma,
        sync_latency=25,
        spin_threshold=2000,
    )
