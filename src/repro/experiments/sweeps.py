"""Parameter sweeps: sensitivity analysis around the paper's operating point.

The paper reports one machine, one noise environment.  These sweeps answer
the "would HPL still matter if..." questions a reader asks:

* :func:`noise_intensity_sweep` — scale the daemon population's activity and
  watch stock-Linux variation grow while HPL stays flat;
* :func:`smt_factor_sweep` — vary the SMT co-run throughput (the one deeply
  machine-specific constant) and check the calibration story is robust;
* :func:`spin_threshold_sweep` — the MPI library's spin budget trades
  context switches against idle windows for the balancer (the Table Ia/Ib
  context-switch asymmetry's sensitivity).

Each returns a list of :class:`SweepPoint` and renders as a text table.
Extra keywords are the campaigns' execution options
(:func:`repro.parallel.run_specs`), forwarded to every point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.analysis.stats import summarize
from repro.analysis.tables import TextTable
from repro.apps.nas import nas_program, nas_spec
from repro.apps.spmd import PhaseKind, Program
from repro.kernel.daemons import NoiseProfile, cluster_node_profile
from repro.topology.cache import power6_cache_hierarchy
from repro.topology.machine import Machine
from repro.topology.presets import power6_js22

__all__ = [
    "SweepPoint",
    "SweepResult",
    "scale_noise_profile",
    "noise_intensity_sweep",
    "smt_factor_sweep",
    "spin_threshold_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    parameter: float
    regime: str
    time_mean_s: float
    time_variation_pct: float
    migrations_mean: float
    context_switches_mean: float


@dataclass(frozen=True)
class SweepResult:
    name: str
    parameter_name: str
    points: tuple

    def for_regime(self, regime: str) -> List[SweepPoint]:
        return [p for p in self.points if p.regime == regime]

    def render(self) -> str:
        t = TextTable(
            f"Sweep: {self.name}",
            [self.parameter_name, "regime", "T.avg(s)", "T.var%", "Mig.avg", "CS.avg"],
        )
        for p in self.points:
            t.add_row(
                f"{p.parameter:g}", p.regime,
                round(p.time_mean_s, 3), round(p.time_variation_pct, 2),
                round(p.migrations_mean, 1), round(p.context_switches_mean, 1),
            )
        return t.render()


def scale_noise_profile(profile: NoiseProfile, factor: float) -> NoiseProfile:
    """Scale a profile's *activity* by ``factor``: daemon wake rates and
    storm frequency multiply; burst durations stay (the taxonomy's frequency
    axis, not its duration axis)."""
    if factor < 0:
        raise ValueError("factor cannot be negative")
    if factor == 0:
        return NoiseProfile(label=f"{profile.label}-x0")
    daemons = tuple(
        replace(spec, period_mean=max(1, int(spec.period_mean / factor)))
        for spec in profile.daemons
    )
    storm = profile.storm
    if storm is not None:
        storm = replace(storm, interval_mean=max(1, int(storm.interval_mean / factor)))
    return NoiseProfile(daemons=daemons, storm=storm, label=f"{profile.label}-x{factor:g}")


def _campaign_point(
    parameter: float,
    regime: str,
    n_runs: int,
    base_seed: int,
    *,
    noise: Optional[NoiseProfile] = None,
    program_factory: Optional[Callable[[], Program]] = None,
    machine_factory: Optional[Callable[[], Machine]] = None,
    bench: str = "is",
    klass: str = "A",
    **run_opts,
) -> SweepPoint:
    from repro.experiments.runner import run_campaign

    spec = nas_spec(bench, klass)
    machine_factory = machine_factory or power6_js22

    def default_factory() -> Program:
        return nas_program(spec, machine_factory())

    campaign = run_campaign(
        program_factory or default_factory,
        spec.nprocs,
        regime,
        n_runs,
        base_seed=base_seed,
        machine_factory=machine_factory,
        noise=noise,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        resume_missing_ok=True,
        **run_opts,
    )
    times = summarize(campaign.app_times_s())
    return SweepPoint(
        parameter=parameter,
        regime=regime,
        time_mean_s=times.mean,
        time_variation_pct=times.variation,
        migrations_mean=summarize(
            [float(v) for v in campaign.migrations()], metric="count"
        ).mean,
        context_switches_mean=summarize(
            [float(v) for v in campaign.context_switches()], metric="count"
        ).mean,
    )


def noise_intensity_sweep(
    factors: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    *,
    n_runs: int = 10,
    base_seed: int = 0,
    bench: str = "is",
    klass: str = "A",
    **run_opts,
) -> SweepResult:
    """Stock vs HPL across noise-activity multipliers."""
    base = cluster_node_profile()
    points = []
    for factor in factors:
        profile = scale_noise_profile(base, factor)
        for regime in ("stock", "hpl"):
            points.append(
                _campaign_point(
                    factor, regime, n_runs, base_seed,
                    noise=profile, bench=bench, klass=klass,
                    **run_opts,
                )
            )
    return SweepResult("noise intensity", "activity x", tuple(points))


def smt_factor_sweep(
    factors: Sequence[float] = (0.5, 0.62, 0.75, 0.9),
    *,
    n_runs: int = 8,
    base_seed: int = 0,
    **run_opts,
) -> SweepResult:
    """Vary the second-thread throughput factor of the js22 model.

    The *program* is calibrated once against the reference js22 (0.62), so
    the sweep shows the raw hardware effect: a machine with better SMT
    scaling runs the identical workload faster.
    """
    spec = nas_spec("is", "A")
    reference_program = nas_program(spec, power6_js22())
    points = []
    for factor in factors:
        if not 0.0 < factor <= 1.0:
            raise ValueError("SMT factor must be in (0, 1]")

        def machine_factory(f=factor) -> Machine:
            return Machine(
                chips=2, cores_per_chip=2, threads_per_core=2,
                cache=power6_cache_hierarchy(),
                smt_throughput=(1.0, f), name=f"js22-smt{f:g}",
            )

        for regime in ("stock", "hpl"):
            points.append(
                _campaign_point(
                    factor, regime, n_runs, base_seed,
                    machine_factory=machine_factory,
                    program_factory=lambda p=reference_program: p,
                    **run_opts,
                )
            )
    return SweepResult("SMT co-run throughput", "factor", tuple(points))


def spin_threshold_sweep(
    thresholds_us: Sequence[int] = (500, 1500, 3000, 8000, 50_000),
    *,
    n_runs: int = 8,
    base_seed: int = 0,
    **run_opts,
) -> SweepResult:
    """Vary the MPI library's spin budget on a fine-grained benchmark."""
    spec = nas_spec("is", "A")
    points = []
    for threshold in thresholds_us:
        if threshold < 1:
            raise ValueError("threshold must be positive")

        def factory(th=threshold) -> Program:
            base = nas_program(spec, power6_js22())
            phases = tuple(
                replace(p, spin_threshold=th) if p.kind == PhaseKind.SYNC else p
                for p in base.phases
            )
            return Program(phases, name=base.name,
                           run_jitter_sigma=base.run_jitter_sigma)

        for regime in ("stock", "hpl"):
            points.append(
                _campaign_point(
                    float(threshold), regime, n_runs, base_seed,
                    program_factory=factory,
                    **run_opts,
                )
            )
    return SweepResult("MPI spin threshold", "threshold us", tuple(points))
