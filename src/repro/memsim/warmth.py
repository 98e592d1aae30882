"""Scalar cache-warmth model.

Each task carries a warmth value ``w ∈ [0, 1]`` interpreted as "fraction of
its working set resident in the caches of the core it last ran on".

Dynamics
--------
* **Running** on its warm core: ``w`` approaches 1 exponentially with CPU
  time, with time constant ``rewarm_tau`` (proportional to cache capacity in
  the presets).
* **Migration** ``src → dst``: warmth is multiplied by the fraction of cache
  capacity shared between the two CPUs (1.0 for an SMT sibling sharing all
  levels on POWER6, 0.0 across cores on the js22, intermediate on machines
  with a chip-wide L3).
* **Eviction while preempted**: an interloper running for ``Δt`` on the same
  core scrubs warmth by ``exp(-Δt / evict_tau)``.
* **Execution speed**: a task runs at ``cold_speed + (1 - cold_speed) * w``
  relative to full speed, i.e. a fully cold task runs at ``cold_speed``.

All the constants are per-:class:`WarmthParams` and documented with the
rationale for the default values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.units import msecs
from repro.topology.machine import Machine

__all__ = ["WarmthParams", "TaskWarmth", "WarmthModel"]


@dataclass(frozen=True)
class WarmthParams:
    """Tunable constants of the warmth model.

    Defaults are calibrated so that (a) a migration costs a freshly-moved
    compute-bound task a few milliseconds of effective time — the order of
    magnitude scheduler folklore and the paper's Fig. 3a slope imply — and
    (b) a short daemon preemption (hundreds of µs) costs noticeably less
    than a migration, matching the paper's emphasis that migrations are the
    dominant indirect cost.
    """

    #: Time constant (µs) for exponential rewarming while running.
    rewarm_tau: int = msecs(3)
    #: Time constant (µs) for eviction decay while an interloper runs.
    evict_tau: int = msecs(8)
    #: Relative execution speed of a fully cold task.
    cold_speed: float = 0.55
    #: Warmth of a newly created task (it has no footprint yet but also no
    #: useful cache state; starting low makes startup effects visible).
    initial_warmth: float = 0.0

    def __post_init__(self) -> None:
        if self.rewarm_tau <= 0 or self.evict_tau <= 0:
            raise ValueError("time constants must be positive")
        if not 0.0 < self.cold_speed <= 1.0:
            raise ValueError("cold_speed must be in (0, 1]")
        if not 0.0 <= self.initial_warmth <= 1.0:
            raise ValueError("initial_warmth must be in [0, 1]")


class TaskWarmth:
    """Per-task warmth state."""

    __slots__ = ("warmth", "home_cpu", "cold_speed", "rewarm_scale", "_tfw_memo")

    def __init__(
        self,
        warmth: float,
        home_cpu: int,
        cold_speed: Optional[float] = None,
        rewarm_scale: float = 1.0,
    ) -> None:
        self.warmth = warmth
        #: CPU whose cache currently holds the footprint.
        self.home_cpu = home_cpu
        #: Per-task override of the model's cold-speed floor: memory-bound
        #: workloads (cg, mg) suffer more from a cold cache than compute-
        #: bound ones (ep).  ``None`` → the model default.
        self.cold_speed = cold_speed
        #: Rewarm time-constant multiplier: a task with a large working set
        #: takes proportionally longer to refill the cache after a migration
        #: or eviction.
        self.rewarm_scale = rewarm_scale
        #: Single-slot memo for :meth:`WarmthModel.time_for_work`:
        #: ``(warmth, work_us, base_rate, result)``.  The key embeds the
        #: current warmth, so any dynamics update invalidates it for free.
        self._tfw_memo: Optional[tuple] = None


class WarmthModel:
    """Applies the warmth dynamics for one machine."""

    def __init__(self, machine: Machine, params: WarmthParams = WarmthParams()) -> None:
        self.machine = machine
        self.params = params

    # ------------------------------------------------------------ lifecycle

    def new_task(self, cpu_id: int) -> TaskWarmth:
        return TaskWarmth(self.params.initial_warmth, cpu_id)

    # ------------------------------------------------------------- dynamics

    def migrate(self, state: TaskWarmth, dst_cpu: int) -> None:
        """Move the footprint to *dst_cpu*, losing unshared cache contents."""
        retained = self.machine.migration_retained_warmth(state.home_cpu, dst_cpu)
        state.warmth *= retained
        state.home_cpu = dst_cpu

    def evict_for(self, state: TaskWarmth, interloper_us: int) -> None:
        """Account an interloper running *interloper_us* on the home core."""
        if interloper_us < 0:
            raise ValueError("negative interloper time")
        if interloper_us == 0:
            return
        state.warmth *= math.exp(-interloper_us / self.params.evict_tau)

    # ---------------------------------------------------------------- speed

    def _cold_speed(self, state: TaskWarmth) -> float:
        if state.cold_speed is not None:
            return state.cold_speed
        return self.params.cold_speed

    def speed_factor(self, state: TaskWarmth) -> float:
        """Relative execution speed in ``[cold_speed, 1]`` at current warmth."""
        cold = self._cold_speed(state)
        return cold + (1.0 - cold) * state.warmth

    def advance(self, state: TaskWarmth, delta_us: int) -> float:
        """Return the exact mean of :meth:`speed_factor` over the next
        *delta_us* of execution (the warmth ODE integrates in closed form)
        and apply the warmth rewarming for it, sharing the one exponential
        both need.

        This is the scheduler core's per-event accounting path: work done
        over ``Δt`` is ``advance(Δt) * Δt`` times the base rate.  It fuses
        the unfused reference pair ``mean_speed_over`` + ``run_for`` (kept
        in ``tests/oracles/warmth.py``) with their expressions in the same
        operand order, so the speed and the post-state are bit-identical to
        calling the two."""
        if delta_us < 0:
            raise ValueError("negative interval")
        if delta_us == 0:
            return self.speed_factor(state)
        params = self.params
        tau = params.rewarm_tau * state.rewarm_scale
        gap = 1.0 - state.warmth
        decay = math.exp(-delta_us / tau)
        # ∫0..Δ (1 - gap e^(-t/τ)) dt = Δ - gap τ (1 - e^(-Δ/τ))
        mean_warmth = 1.0 - gap * tau * (1.0 - decay) / delta_us
        cold = state.cold_speed
        if cold is None:
            cold = params.cold_speed
        state.warmth = 1.0 - gap * decay
        return cold + (1.0 - cold) * mean_warmth

    def time_for_work(self, state: TaskWarmth, work_us: int, base_rate: float) -> int:
        """Invert the closed-form mean speed of :meth:`advance`: µs of
        wall-execution needed to complete *work_us* of work at
        ``base_rate × speed_factor`` rate.

        ``base_rate`` folds in non-cache effects (SMT co-run factor).  The
        real-valued root of the closed-form work integral is found by Newton
        iteration (3–4 exponentials instead of the ~20 a full bisection
        costs), then snapped to the smallest integer µs that completes the
        work — the *same* integer the historical bisection returned, because
        the final fixup evaluates the identical predicate.
        """
        if work_us <= 0:
            return 0
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")

        # One-slot memo: a repeat of the last inversion with the same
        # warmth, work and rate.  Measured on the class-A NAS table it
        # answers 0.7% of calls; almost every re-arm follows an accounting
        # checkpoint that moved the warmth or the remaining work.  The key
        # leaves out ``cold_speed`` and ``rewarm_scale``, so a change to
        # either after an inversion can return a stale answer (see
        # ``test_memo_key_ignores_cold_speed_and_rewarm_scale``).
        memo = state._tfw_memo
        warmth_now = state.warmth
        if (
            memo is not None
            and memo[0] == warmth_now
            and memo[1] == work_us
            and memo[2] == base_rate
        ):
            return memo[3]

        params = self.params
        cold = state.cold_speed
        if cold is None:
            cold = params.cold_speed
        tau = params.rewarm_tau * state.rewarm_scale
        gap = 1.0 - state.warmth
        exp = math.exp

        # Even at the cold floor the task finishes within this.
        hi = int(work_us / (base_rate * cold)) + 2

        # Closed form: work(Δ) = R·(Δ - C·(1 - e^(-Δ/τ))) with
        # C = (1-cold)·gap·τ — increasing and convex, so Newton started
        # above the root converges monotonically.
        c = (1.0 - cold) * gap * tau
        target = work_us / base_rate
        d = target + c
        if c > 0.0:
            for _ in range(12):
                e = exp(-d / tau)
                f = d - c * (1.0 - e) - target
                step = f / (1.0 - (c / tau) * e)
                d -= step
                if step < 0.5:
                    break

        # Snap to the minimal integer satisfying the historical predicate
        # "work done in k µs >= work_us", i.e.
        # mean_speed_over(state, k) * k * base_rate >= work_us (the reference
        # form is in tests/oracles/warmth.py).  It is
        # written out below at each use with mean_speed_over's operand
        # order; ``gap * tau`` and ``1 - cold`` are its leading products,
        # so hoisting them changes no bit (k >= 1 at every use).
        gap_tau = gap * tau
        warm = 1.0 - cold
        n = int(d)
        if n < 1:
            n = 1
        elif n > hi:
            n = hi
        if (cold + warm * (1.0 - gap_tau * (1.0 - exp(-n / tau)) / n)) * n * base_rate >= work_us:
            while n > 1:
                k = n - 1
                if (
                    (cold + warm * (1.0 - gap_tau * (1.0 - exp(-k / tau)) / k)) * k * base_rate
                    < work_us
                ):
                    break
                n = k
        else:
            n += 1
            while (
                n < hi
                and (cold + warm * (1.0 - gap_tau * (1.0 - exp(-n / tau)) / n)) * n * base_rate
                < work_us
            ):
                n += 1
        state._tfw_memo = (warmth_now, work_us, base_rate, n)
        return n
