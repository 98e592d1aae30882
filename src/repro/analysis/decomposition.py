"""Direct-vs-indirect OS-noise decomposition (§III's taxonomy, measured).

The paper distinguishes the **direct** cost of scheduler noise (the victim
"makes no progress when not running", plus switch/balance bookkeeping) from
the **indirect** cost ("a non-HPC process may evict some of the HPC task's
cache lines"; migrated tasks "cannot run at full speed until the cache
rewarms").  On real hardware the two are entangled; in the simulator they
are separable by a counterfactual: re-run the identical workload (common
random numbers) with the cache model neutralized, and attribute

* ``clean → no-cache-noisy``  to direct effects,
* ``no-cache-noisy → noisy``  to indirect (cache) effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memsim.warmth import WarmthParams
from repro.apps.nas import nas_program, nas_spec
from repro.apps.spmd import Program
from repro.kernel.daemons import NoiseProfile, quiet_profile
from repro.kernel.kernel import KernelConfig

__all__ = ["NoiseDecomposition", "decompose_noise", "decompose_nas_noise"]

#: Warmth parameters that disable every cache effect (full speed always).
_NO_CACHE = WarmthParams(initial_warmth=1.0, cold_speed=1.0)


@dataclass(frozen=True)
class NoiseDecomposition:
    """Per-run slowdown split into the §III categories (µs)."""

    clean_time: int
    no_cache_time: int
    full_time: int

    @property
    def direct_overhead(self) -> int:
        """Preemption/balancing/switch time lost (no cache effects)."""
        return max(0, self.no_cache_time - self.clean_time)

    @property
    def indirect_overhead(self) -> int:
        """Additional loss once cache eviction/rewarm is modelled."""
        return max(0, self.full_time - self.no_cache_time)

    @property
    def total_overhead(self) -> int:
        return max(0, self.full_time - self.clean_time)

    @property
    def indirect_fraction(self) -> float:
        """Share of the total noise that is cache-mediated."""
        total = self.total_overhead
        if total == 0:
            return 0.0
        return self.indirect_overhead / total

    def render(self) -> str:
        return (
            f"clean {self.clean_time / 1e6:.3f}s | "
            f"+direct {self.direct_overhead / 1e6:.3f}s | "
            f"+indirect {self.indirect_overhead / 1e6:.3f}s "
            f"(indirect share {self.indirect_fraction * 100:.0f}%)"
        )


def decompose_noise(
    program_factory,
    nprocs: int,
    *,
    regime: str = "stock",
    seed: int = 0,
    noise: Optional[NoiseProfile] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
) -> NoiseDecomposition:
    """Three-arm counterfactual for one workload/seed."""
    from repro.experiments.runner import run_program

    base_cfg = (
        KernelConfig.hpl() if regime == "hpl" else KernelConfig.stock()
    )
    no_cache_cfg = base_cfg.with_overrides(warmth=_NO_CACHE)

    clean = run_program(
        program_factory(), nprocs, regime, seed=seed, noise=quiet_profile(),
        kernel_config=no_cache_cfg,
    )
    no_cache = run_program(
        program_factory(), nprocs, regime, seed=seed, noise=noise,
        kernel_config=no_cache_cfg,
    )
    full = run_program(
        program_factory(), nprocs, regime, seed=seed, noise=noise,
        kernel_config=base_cfg, cold_speed=cold_speed, rewarm_scale=rewarm_scale,
    )
    return NoiseDecomposition(
        clean_time=clean.app_time,
        no_cache_time=no_cache.app_time,
        full_time=full.app_time,
    )


def decompose_nas_noise(
    name: str, klass: str, *, regime: str = "stock", seed: int = 0
) -> NoiseDecomposition:
    """The decomposition for one NAS configuration."""
    from repro.topology.presets import power6_js22

    spec = nas_spec(name, klass)

    def factory() -> Program:
        return nas_program(spec, power6_js22())

    return decompose_noise(
        factory,
        spec.nprocs,
        regime=regime,
        seed=seed,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
    )
