"""A first-order node energy model (the paper's future work, §VII).

"We will extend HPL taking into account the power dimension" — this module
provides the accounting that extension needs: per-CPU busy/idle power with
an SMT sharing discount, integrated over a run from the scheduler's switch
events.  It exposes the energy comparison the ablation benches use: HPL's
"race-to-idle" behaviour (no daemon interleaving, tighter runs) versus the
stock kernel's longer, churnier executions.

Model
-----
Each physical core draws ``core_idle_w`` watts when all of its hardware
threads idle, and ``core_busy_w`` when at least one runs; a second busy SMT
thread adds ``smt_extra_w`` (far less than a full core — the thread shares
the pipeline).  Uncore (chip) power is a constant per chip.  This is the
standard linear server-power model; the absolute watts default to published
POWER6 figures' order of magnitude and only the *ratios* matter for the
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import SEC
from repro.kernel.kernel import Kernel

__all__ = ["PowerParams", "EnergyMeter"]


@dataclass(frozen=True)
class PowerParams:
    """Linear power model constants (watts)."""

    core_busy_w: float = 14.0
    core_idle_w: float = 3.5
    smt_extra_w: float = 4.0
    chip_uncore_w: float = 20.0
    #: Uncore draw of a chip whose cores are ALL idle (deep package state).
    chip_gated_uncore_w: float = 6.0

    def __post_init__(self) -> None:
        if min(self.core_busy_w, self.core_idle_w, self.smt_extra_w,
               self.chip_uncore_w, self.chip_gated_uncore_w) < 0:
            raise ValueError("power draws cannot be negative")
        if self.core_busy_w < self.core_idle_w:
            raise ValueError("busy power below idle power")
        if self.chip_uncore_w < self.chip_gated_uncore_w:
            raise ValueError("gated uncore above active uncore")


class EnergyMeter:
    """Integrates node energy over simulated time.

    Attach to a kernel *before* the workload runs; read
    :attr:`energy_joules` afterwards.  Integration is event-driven: the
    meter checkpoints on every context switch (the only instants busy state
    changes) and on explicit :meth:`sample` calls.
    """

    def __init__(self, kernel: Kernel, params: PowerParams = PowerParams()) -> None:
        self.kernel = kernel
        self.params = params
        self.energy_joules = 0.0
        self._last_time = kernel.now
        self._last_power = self._instant_power()
        kernel.core.switch_hooks.append(self._on_switch)

    # ------------------------------------------------------------- sampling

    def _busy_threads(self, core) -> int:
        busy = 0
        for thread in core.threads:
            curr = self.kernel.core.rqs[thread.cpu_id].curr
            if curr is not None and not curr.is_idle:
                busy += 1
        return busy

    def _instant_power(self) -> float:
        p = self.params
        total = 0.0
        machine = self.kernel.machine
        for chip in machine.chips:
            chip_busy = False
            for core in chip.cores:
                busy = self._busy_threads(core)
                if busy == 0:
                    total += p.core_idle_w
                else:
                    chip_busy = True
                    total += p.core_busy_w + p.smt_extra_w * (busy - 1)
            total += p.chip_uncore_w if chip_busy else p.chip_gated_uncore_w
        return total

    def _integrate_to(self, now: int) -> None:
        delta = now - self._last_time
        if delta > 0:
            self.energy_joules += self._last_power * (delta / SEC)
            self._last_time = now
        self._last_power = self._instant_power()

    def _on_switch(self, time: int, cpu: int, prev, next_task) -> None:
        self._integrate_to(time)

    # ------------------------------------------------------------ public API

    def sample(self) -> float:
        """Integrate up to now; return cumulative joules."""
        self._integrate_to(self.kernel.now)
        return self.energy_joules

    def power_now(self) -> float:
        """Instantaneous node power draw (watts)."""
        return self._instant_power()

    def energy_between(self, fn) -> float:
        """Measure the energy consumed while *fn* drives the simulation:
        ``delta = energy_between(lambda: sim.run_until(t))``."""
        start = self.sample()
        fn()
        return self.sample() - start
