"""The unfused warmth dynamics, kept verbatim: :meth:`run_for` and
:meth:`mean_speed_over`, the reference forms the scheduler core's fused
path must equal.

:meth:`repro.memsim.warmth.WarmthModel.advance` returns the mean speed over
an interval and applies the rewarming for it from one shared exponential;
it must be bit-identical to ``mean_speed_over`` followed by ``run_for``.
:meth:`~repro.memsim.warmth.WarmthModel.time_for_work` inverts
``mean_speed_over``: it returns the smallest integer ``n`` with
``mean_speed_over(state, n) * n * base_rate >= work_us``.
``tests/test_memsim_warmth.py`` and ``tests/test_warmth_inversion.py`` hold
them to these forms.

:class:`UnfusedWarmthModel` is the live model plus the two reference
methods; everything else runs the current code.
"""

from __future__ import annotations

import math

from repro.memsim.warmth import TaskWarmth, WarmthModel

__all__ = ["UnfusedWarmthModel"]


class UnfusedWarmthModel(WarmthModel):
    """:class:`WarmthModel` with the unfused reference dynamics."""

    def _tau(self, state: TaskWarmth) -> float:
        return self.params.rewarm_tau * state.rewarm_scale

    def run_for(self, state: TaskWarmth, delta_us: int) -> None:
        """Account *delta_us* of execution on the task's home CPU."""
        if delta_us < 0:
            raise ValueError("negative run time")
        if delta_us == 0:
            return
        decay = math.exp(-delta_us / self._tau(state))
        state.warmth = 1.0 - (1.0 - state.warmth) * decay

    def mean_speed_over(self, state: TaskWarmth, delta_us: int) -> float:
        """Exact mean of :meth:`speed_factor` over the next *delta_us* of
        execution (the warmth ODE integrates in closed form).

        Work done over ``Δt`` equals ``mean_speed_over(Δt) * Δt``.
        """
        if delta_us < 0:
            raise ValueError("negative interval")
        if delta_us == 0:
            return self.speed_factor(state)
        tau = self._tau(state)
        gap = 1.0 - state.warmth
        # ∫0..Δ (1 - gap e^(-t/τ)) dt = Δ - gap τ (1 - e^(-Δ/τ))
        mean_warmth = 1.0 - gap * tau * (1.0 - math.exp(-delta_us / tau)) / delta_us
        cold = self._cold_speed(state)
        return cold + (1.0 - cold) * mean_warmth
