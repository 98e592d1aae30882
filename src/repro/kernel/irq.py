"""Timer-interrupt micro-noise (the paper's *other* noise category).

§V: "we focus on the scheduler design of HPL and do not address micro-noise
[7], [10] from the local timer interrupt ... HPL uses NETTICK [21] to reduce
periodic timer interrupts"; the related work attributes ~63% of OS noise to
timer interrupts.  The default simulator folds ticks into a throughput
haircut (cheap, adequate for the scheduler tables).  This module models them
*explicitly* for the micro-noise experiments:

* every CPU takes a periodic interrupt at ``hz``; each steals
  ``duration_us`` from whatever is running — **regardless of scheduling
  class** (interrupts outrank even the HPC class; that is exactly why the
  paper needs NETTICK on top of the HPL scheduler);
* every ``bookkeeping_every`` ticks, the handler does extended work
  (``bookkeeping_us``) — the "activities started by the paired interrupt
  handler" of the paper's [7];
* per-CPU phase skew is configurable: skewed ticks are the uncoordinated
  noise of the resonance literature, aligned ticks the co-scheduled kind;
* ``nettick=True`` models the paper's [21]: a CPU whose run queue holds at
  most one task skips its periodic tick entirely.

Explicit ticks cost simulation events (HZ × CPUs × seconds), so this is an
opt-in instrument for short targeted runs, not part of the default
campaigns — mirroring how the paper isolates the two noise sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.units import SEC
from repro.kernel.kernel import Kernel

__all__ = ["TimerInterruptParams", "TimerInterrupts"]


@dataclass(frozen=True)
class TimerInterruptParams:
    """Tick configuration.

    Defaults approximate a 2.6.3x HZ=1000 kernel: ~5 µs per tick of handler
    work with a heavier ~40 µs bookkeeping pass (scheduler stats, RCU,
    timer-wheel cascades) every 10 ticks.
    """

    hz: int = 1000
    duration_us: int = 5
    bookkeeping_every: int = 10
    bookkeeping_us: int = 40
    #: Spread the per-CPU phases across the period (uncoordinated ticks,
    #: the realistic default); False aligns every CPU's tick.
    skewed: bool = True
    #: NETTICK: skip ticks on CPUs with <= 1 runnable task.
    nettick: bool = False

    def __post_init__(self) -> None:
        if self.hz < 1 or self.hz > 100_000:
            raise ValueError("hz out of range")
        if self.duration_us < 0 or self.bookkeeping_us < 0:
            raise ValueError("durations cannot be negative")
        if self.bookkeeping_every < 1:
            raise ValueError("bookkeeping_every must be >= 1")
        if self.duration_us >= self.period_us:
            raise ValueError("tick handler longer than the tick period")

    @property
    def period_us(self) -> int:
        return max(1, SEC // self.hz)

    @property
    def duty_cycle(self) -> float:
        """Average fraction of CPU time the ticks consume."""
        per_period = self.duration_us + self.bookkeeping_us / self.bookkeeping_every
        return per_period / self.period_us


class TimerInterrupts:
    """Drives explicit periodic timer interrupts on every CPU of a kernel."""

    def __init__(self, kernel: Kernel, params: TimerInterruptParams = TimerInterruptParams()) -> None:
        self.kernel = kernel
        self.params = params
        self.ticks_fired = 0
        self.ticks_skipped = 0
        self._tick_counts: List[int] = [0] * kernel.machine.n_cpus
        self._started = False

    def start(self) -> None:
        """Arm the per-CPU tick timers."""
        if self._started:
            raise RuntimeError("timer interrupts already started")
        self._started = True
        period = self.params.period_us
        n = self.kernel.machine.n_cpus
        for cpu in range(n):
            phase = (cpu * period) // n if self.params.skewed else 0
            self.kernel.sim.after(
                phase + period,
                lambda c=cpu: self._tick(c),
                priority=1,  # interrupts beat everything at an instant
                label=f"tick:cpu{cpu}",
            )

    # ------------------------------------------------------------ internals

    def _tick(self, cpu: int) -> None:
        params = self.params
        self._tick_counts[cpu] += 1
        rq = self.kernel.core.rqs[cpu]
        quiet = rq.curr is not None and rq.curr.is_idle
        nettick_skip = (
            params.nettick
            and rq.nr_queued() == 0  # at most the running task
        )
        if nettick_skip or quiet:
            self.ticks_skipped += 1
        else:
            self.ticks_fired += 1
            cost = params.duration_us
            if self._tick_counts[cpu] % params.bookkeeping_every == 0:
                cost += params.bookkeeping_us
            if cost > 0:
                self.kernel.core.charge_overhead(cpu, cost)
        self.kernel.sim.after(
            params.period_us,
            lambda c=cpu: self._tick(c),
            priority=1,
            label=f"tick:cpu{cpu}",
        )

    # ------------------------------------------------------------- reports

    @property
    def theoretical_slowdown(self) -> float:
        """Expected slowdown of a CPU-bound task under these ticks."""
        return 1.0 / (1.0 - self.params.duty_cycle)
