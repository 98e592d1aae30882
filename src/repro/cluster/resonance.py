"""Noise resonance at cluster scale.

A bulk-synchronous application's phase ends when its *slowest* node does, so
with N nodes each phase pays ``max_i(delay_i)``.  Two estimators:

* :func:`analytic_resonance` — the textbook closed form for Bernoulli
  noise: a node is hit with probability *p* per phase, costing *d*;
  expected per-phase penalty is ``d × (1 − (1−p)^N)`` → *d* as N → ∞ ("the
  probability that in each computing phase at least one node is slowed ...
  approaches 1.0", §II);
* :func:`resonance_curve` — bootstrap from *measured* single-node per-phase
  delays (collect them with :func:`measure_phase_delays`, which runs the
  actual kernel simulator), making no distributional assumption.

:func:`spare_core_comparison` reproduces the Petrini et al. observation the
paper quotes in §VI: at scale, giving one core per node to the OS can beat
using every core, because it collapses the delay tail that resonance
amplifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.units import SEC, msecs, secs

__all__ = [
    "DelayProfile",
    "measure_phase_delays",
    "ResonancePoint",
    "resonance_curve",
    "analytic_resonance",
    "spare_core_comparison",
]


@dataclass(frozen=True)
class DelayProfile:
    """Empirical per-phase delays of one node configuration."""

    label: str
    #: Ideal (noise-free) phase duration, seconds.
    base_phase_s: float
    #: Observed per-phase delays beyond the base, seconds (>= 0).
    delays_s: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.base_phase_s <= 0:
            raise ValueError("base phase must be positive")
        if not self.delays_s:
            raise ValueError("need at least one delay sample")
        if any(d < 0 for d in self.delays_s):
            raise ValueError("delays cannot be negative")

    @property
    def mean_delay_s(self) -> float:
        return float(np.mean(self.delays_s))


def measure_phase_delays(
    *,
    regime: str = "stock",
    nprocs: int = 8,
    n_iters: int = 60,
    iter_work: int = msecs(30),
    seed: int = 0,
    label: str = "",
) -> DelayProfile:
    """Run one iterative job on the single-node simulator and record the
    per-iteration (barrier-to-barrier) delays beyond the fastest iteration.

    The resulting :class:`DelayProfile` is the empirical noise signature of
    one node configuration, ready for :func:`resonance_curve`.
    """
    from repro.apps.mpi import MpiApplication
    from repro.apps.spmd import Program
    from repro.experiments.runner import build_kernel
    from repro.kernel.daemons import DaemonSet, cluster_node_profile

    kernel = build_kernel("hpl" if regime == "hpl" else "stock", seed=seed)
    DaemonSet(kernel, cluster_node_profile()).start()
    program = Program.iterative(
        name=label or f"resonance-{regime}",
        n_iters=n_iters,
        iter_work=iter_work,
        init_ops=4,
        finalize_ops=0,
    )
    release_times: List[int] = []
    app = MpiApplication(kernel, program, nprocs, on_complete=lambda a: kernel.sim.stop())
    original_release = app._release

    def tracking_release(sync_pos: int, *args) -> None:
        original_release(sync_pos, *args)
        release_times.append(kernel.sim.now)

    app._release = tracking_release  # type: ignore[method-assign]

    if regime == "hpl":
        launch_kwargs = {"policy": "SCHED_HPC"}
    elif regime == "rt":
        launch_kwargs = {"policy": "SCHED_FIFO", "rt_priority": 50}
    else:
        launch_kwargs = {}
    kernel.sim.at(msecs(30), lambda: app.launch(**launch_kwargs), label="resonance:launch")
    kernel.sim.run_until(secs(3600))
    if len(release_times) < n_iters + 1:
        raise RuntimeError("resonance measurement job did not finish")
    spans = np.diff(np.asarray(release_times[: n_iters + 1], dtype=float)) / SEC
    base = float(spans.min())
    delays = tuple(float(s - base) for s in spans)
    return DelayProfile(
        label=label or f"{regime}.{nprocs}ranks", base_phase_s=base, delays_s=delays
    )


@dataclass(frozen=True)
class ResonancePoint:
    """Predicted behaviour at one cluster size."""

    nodes: int
    #: Probability a phase is disturbed on at least one node.
    p_phase_disturbed: float
    #: Expected per-phase penalty, seconds.
    expected_penalty_s: float
    #: Slowdown of the whole application vs noise-free.
    slowdown: float


def resonance_curve(
    profile: DelayProfile,
    node_counts: Sequence[int],
    *,
    n_phases: int = 200,
    n_bootstrap: int = 300,
    rng: Optional[np.random.Generator] = None,
    disturb_threshold_s: float = 1e-4,
) -> List[ResonancePoint]:
    """Bootstrap the cluster-scale slowdown from a single-node profile.

    For each cluster size N, each bootstrap replicate draws N i.i.d. delays
    per phase from the profile (independent nodes — the uncoordinated-noise
    assumption) and pays their maximum; the replicate's application time is
    ``n_phases × base + Σ max-delays``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    delays = np.asarray(profile.delays_s, dtype=float)
    points: List[ResonancePoint] = []
    p_single = float((delays > disturb_threshold_s).mean())
    for n in node_counts:
        if n < 1:
            raise ValueError("node counts must be >= 1")
        # E[max of n draws] estimated by bootstrap.
        draws = rng.choice(delays, size=(n_bootstrap, n_phases, min(n, 512)))
        # For very large n, cap the per-phase sample and correct upward via
        # the exact order-statistics identity on the ECDF instead:
        if n <= 512:
            maxima = draws.max(axis=2)
        else:
            # P(max <= x) = F(x)^n on the empirical distribution.
            sorted_d = np.sort(delays)
            cdf_pow = ((np.arange(1, delays.size + 1)) / delays.size) ** n
            pmf = np.diff(np.concatenate(([0.0], cdf_pow)))
            e_max = float((sorted_d * pmf).sum())
            maxima = np.full((n_bootstrap, n_phases), e_max)
        penalty = float(maxima.mean())
        slowdown = (profile.base_phase_s + penalty) / profile.base_phase_s
        points.append(
            ResonancePoint(
                nodes=n,
                p_phase_disturbed=float(1.0 - (1.0 - p_single) ** n),
                expected_penalty_s=penalty,
                slowdown=slowdown,
            )
        )
    return points


def analytic_resonance(
    p: float, delay_s: float, base_phase_s: float, node_counts: Sequence[int]
) -> List[ResonancePoint]:
    """Closed-form resonance for Bernoulli(p) noise of fixed *delay_s*."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if delay_s < 0 or base_phase_s <= 0:
        raise ValueError("bad delay/base")
    out = []
    for n in node_counts:
        if n < 1:
            raise ValueError("node counts must be >= 1")
        hit = 1.0 - (1.0 - p) ** n
        penalty = delay_s * hit
        out.append(
            ResonancePoint(
                nodes=n,
                p_phase_disturbed=hit,
                expected_penalty_s=penalty,
                slowdown=(base_phase_s + penalty) / base_phase_s,
            )
        )
    return out


def spare_core_comparison(
    node_counts: Sequence[int],
    *,
    n_iters: int = 60,
    iter_work: int = msecs(30),
    seed: int = 0,
) -> Dict[str, List[ResonancePoint]]:
    """Petrini-style experiment: all 8 hardware threads for ranks vs 7 ranks
    + one thread left to the OS, extrapolated across cluster sizes.

    With a spare thread, daemons wake onto the idle CPU instead of
    preempting ranks, so the per-phase delay tail collapses; at scale the
    7-rank configuration's *slowdown* stays near 1 while the 8-rank one
    degrades (the paper's §VI quotes 1.87x improvement at 8K processors).
    Note the comparison is slowdown-vs-own-baseline, matching Petrini's
    framing.
    """
    full = measure_phase_delays(
        regime="stock", nprocs=8, n_iters=n_iters, iter_work=iter_work,
        seed=seed, label="all-cores",
    )
    spare = measure_phase_delays(
        regime="stock", nprocs=7, n_iters=n_iters, iter_work=iter_work,
        seed=seed, label="spare-core",
    )
    return {
        "all-cores": resonance_curve(full, node_counts),
        "spare-core": resonance_curve(spare, node_counts),
    }
