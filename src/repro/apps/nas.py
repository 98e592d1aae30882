"""NAS Parallel Benchmark workload models (MPI version 3.3, 8 ranks).

We model each benchmark as its compute/synchronize cadence (§II), not its
numerics — OS-noise sensitivity is a function of phase *granularity*,
synchronization *frequency*, and cache *footprint*, all of which we carry
per benchmark:

================  =============================================  ===========
benchmark         character                                      granularity
================  =============================================  ===========
``ep``            embarrassingly parallel, a few reductions      very coarse
``cg``            conjugate gradient, allreduce per inner iter   very fine
``ft``            3-D FFT, alltoall transposes                   chunky
``is``            bucket sort, allreduce + alltoall per iter     fine, short
``lu``            SSOR wavefront, many small exchanges           very fine
``mg``            multigrid V-cycles, exchanges at every level   fine
================  =============================================  ===========

Base compute times are calibrated so the *clean* run (HPL kernel, no noise,
all 8 hardware threads busy) lands on the paper's Table II HPL-minimum
column; class B differs from class A by data-set size (more work per
iteration and/or more iterations), deliberately **without** touching the
noise model — the paper's observation that ep's extra context switches under
stock Linux scale with run length then falls out rather than being fit.

``sigma_run`` models run-to-run application-intrinsic variation (memory
layout, page placement — the paper's §III aside), calibrated against the
HPL variation column; it is identical across kernels, so the stock-Linux
variation in Table II remains overwhelmingly scheduler-caused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from repro.units import secs, usecs
from repro.topology.machine import Machine
from repro.apps.spmd import Program

__all__ = ["NasSpec", "NAS_BENCHMARKS", "nas_spec", "nas_program"]


@dataclass(frozen=True)
class NasSpec:
    """Shape parameters of one benchmark × class."""

    name: str
    klass: str
    nprocs: int
    #: Target clean execution time of the timed section, µs (Table II, HPL
    #: minimum column).
    target_time: int
    #: Number of compute/sync iterations in the timed section.
    n_iters: int
    #: Collective release latency, µs (barrier < allreduce < alltoall).
    sync_latency: int
    #: CPU cost of processing each collective arrival, µs.
    arrival_cost: int
    #: Per-rank, per-phase compute jitter (log-normal sigma).
    sigma_phase: float
    #: Per-run correlated compute jitter (log-normal sigma).
    sigma_run: float
    #: Cold-cache execution-speed floor: low = memory-bound.
    cold_speed: float
    #: Cache rewarm time-constant multiplier (working-set size proxy).
    rewarm_scale: float = 1.0
    #: MPI progress-loop spin budget before blocking, µs.  Coarse benchmarks
    #: tolerate multi-ms waits; fine-grained ones give up the CPU quickly.
    spin_threshold: int = 1200
    #: MPI_Init blocking operations (connection setup etc.).
    init_ops: int = 14
    init_wait_mean: int = usecs(500)

    def __post_init__(self) -> None:
        if self.target_time <= 0 or self.n_iters < 1:
            raise ValueError("target_time and n_iters must be positive")
        if not 0.0 < self.cold_speed <= 1.0:
            raise ValueError("cold_speed must be in (0, 1]")

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``ep.A.8``."""
        return f"{self.name}.{self.klass}.{self.nprocs}"


def _spec(
    name: str,
    klass: str,
    target_s: float,
    n_iters: int,
    sync_latency: int,
    sigma_phase: float,
    sigma_run: float,
    cold_speed: float,
    arrival_cost: int = 6,
    rewarm_scale: float = 1.0,
    spin_threshold: int = 2500,
) -> NasSpec:
    return NasSpec(
        name=name,
        klass=klass,
        nprocs=8,
        target_time=secs(target_s),
        n_iters=n_iters,
        sync_latency=sync_latency,
        arrival_cost=arrival_cost,
        sigma_phase=sigma_phase,
        sigma_run=sigma_run,
        cold_speed=cold_speed,
        rewarm_scale=rewarm_scale,
        spin_threshold=spin_threshold,
    )


#: The twelve configurations of Tables I and II.  (bt/sp need square rank
#: counts and are omitted, exactly as the paper's footnote 5 does.)
NAS_BENCHMARKS: Dict[Tuple[str, str], NasSpec] = {
    ("cg", "A"): _spec("cg", "A", 0.68, 380, 25, 0.004, 0.0040, 0.40, rewarm_scale=4.0, spin_threshold=3_000),
    ("cg", "B"): _spec("cg", "B", 36.96, 760, 30, 0.004, 0.0050, 0.40, rewarm_scale=3.0, spin_threshold=8_000),
    ("ep", "A"): _spec("ep", "A", 8.54, 4, 40, 0.0015, 0.0005, 0.85, spin_threshold=8_000),
    ("ep", "B"): _spec("ep", "B", 34.14, 4, 40, 0.0015, 0.0008, 0.85, spin_threshold=8_000),
    ("ft", "A"): _spec("ft", "A", 2.05, 18, 150, 0.003, 0.0020, 0.50, arrival_cost=40,
                        rewarm_scale=3.0, spin_threshold=5_000),
    ("ft", "B"): _spec("ft", "B", 22.58, 60, 220, 0.003, 0.0009, 0.50, arrival_cost=60,
                        rewarm_scale=4.0, spin_threshold=5_000),
    ("is", "A"): _spec("is", "A", 0.35, 22, 60, 0.004, 0.0040, 0.60, arrival_cost=20,
                        rewarm_scale=2.0, spin_threshold=3_000),
    ("is", "B"): _spec("is", "B", 1.82, 22, 90, 0.004, 0.0016, 0.60, arrival_cost=30,
                        rewarm_scale=3.0, spin_threshold=3_000),
    ("lu", "A"): _spec("lu", "A", 17.71, 510, 15, 0.002, 0.0025, 0.50, rewarm_scale=3.0, spin_threshold=4_000),
    ("lu", "B"): _spec("lu", "B", 71.81, 760, 15, 0.002, 0.0120, 0.50, rewarm_scale=3.0, spin_threshold=8_000),
    ("mg", "A"): _spec("mg", "A", 0.96, 170, 20, 0.004, 0.0015, 0.40, rewarm_scale=4.0, spin_threshold=3_000),
    ("mg", "B"): _spec("mg", "B", 4.48, 340, 20, 0.004, 0.0020, 0.40, rewarm_scale=3.0, spin_threshold=4_000),
}


def nas_spec(name: str, klass: str) -> NasSpec:
    """Look up a benchmark spec, e.g. ``nas_spec("ep", "A")``."""
    key = (name.lower(), klass.upper())
    if key not in NAS_BENCHMARKS:
        known = sorted({k for k, _ in NAS_BENCHMARKS})
        raise KeyError(
            f"unknown NAS benchmark {name}.{klass}; available: {known} in classes A/B"
        )
    return NAS_BENCHMARKS[key]


def clean_rate(machine: Machine, nprocs: int) -> float:
    """Per-rank execution rate when *nprocs* ranks occupy the machine's
    hardware threads and caches are warm: the SMT co-run factor at the
    occupancy a topology-aware placement produces."""
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    busy_per_core = max(1, math.ceil(nprocs / machine.n_cores))
    busy_per_core = min(busy_per_core, machine.threads_per_core)
    return machine.smt_throughput[busy_per_core - 1]


def calibrated_iter_work(spec: NasSpec, machine: Machine) -> int:
    """Per-iteration compute work (µs) such that the clean run of the timed
    section lasts ``spec.target_time``.

    Solves ``n × (work/rate + arrival/rate + latency) = target``.
    """
    rate = clean_rate(machine, spec.nprocs)
    per_iter_wall = spec.target_time / spec.n_iters
    work = (per_iter_wall - spec.sync_latency) * rate - spec.arrival_cost
    if work < 1:
        raise ValueError(
            f"{spec.label}: target time too small for {spec.n_iters} iterations"
        )
    return int(work)


def nas_program(spec: NasSpec, machine: Machine) -> Program:
    """The runnable phase program for *spec* on *machine*."""
    return _iterative_program(spec, calibrated_iter_work(spec, machine))


@lru_cache(maxsize=16)
def _iterative_program(spec: NasSpec, iter_work: int) -> Program:
    """Build the program once per ``(spec, iter_work)``: a ``Program`` is
    immutable, and a campaign asks for the same one every repetition (lu.A
    is over a thousand phases).  Sixteen entries hold the twelve Table II
    configurations on one machine."""
    return Program.iterative(
        name=spec.label,
        n_iters=spec.n_iters,
        iter_work=iter_work,
        sync_latency=spec.sync_latency,
        jitter_sigma=spec.sigma_phase,
        run_jitter_sigma=spec.sigma_run,
        init_ops=spec.init_ops,
        init_wait_mean=spec.init_wait_mean,
        arrival_cost=spec.arrival_cost,
        spin_threshold=spec.spin_threshold,
    )
