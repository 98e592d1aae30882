"""Regenerators for the paper's figures.

Each ``figureN`` function runs the necessary campaign(s) and returns a typed
result carrying both the raw data and a terminal rendering, so the
``benchmarks/`` harness and the examples print the same artifact the paper
shows.  See DESIGN.md §4 for the figure-by-figure acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.units import msecs, secs, to_seconds
from repro.analysis.correlation import CorrelationReport, correlate
from repro.analysis.histogram import Histogram, build_histogram, render_ascii_histogram
from repro.analysis.stats import RunStatistics, summarize
from repro.experiments.runner import CampaignResult, run_nas_campaign

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "Figure1Result",
    "HistogramFigure",
    "Figure3Result",
]


# --------------------------------------------------------------------------
# Figure 1 — effects of process preemption on a parallel application
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure1Result:
    """Per-iteration barrier-to-barrier spans, clean vs disturbed.

    The paper's Fig. 1 is an illustrative timeline: one preempted rank makes
    every other rank idle-wait at the barrier.  We regenerate it with data:
    the same 4-rank application run twice — undisturbed, and with a single
    injected preemption — reporting each iteration's duration and the total
    rank idle (barrier-wait) time.
    """

    clean_iteration_s: Tuple[float, ...]
    disturbed_iteration_s: Tuple[float, ...]
    disturbed_iteration_index: int
    injected_noise_s: float

    @property
    def slowdown_of_disturbed_iteration(self) -> float:
        i = self.disturbed_iteration_index
        return self.disturbed_iteration_s[i] / self.clean_iteration_s[i]

    def render(self) -> str:
        lines = ["Figure 1: one preempted task delays every rank to the barrier", ""]
        lines.append(f"{'iter':>4}  {'clean (s)':>10}  {'disturbed (s)':>13}")
        for i, (c, d) in enumerate(
            zip(self.clean_iteration_s, self.disturbed_iteration_s)
        ):
            marker = "  <- preemption here" if i == self.disturbed_iteration_index else ""
            lines.append(f"{i:>4}  {c:>10.4f}  {d:>13.4f}{marker}")
        lines.append("")
        lines.append(
            f"injected noise: {self.injected_noise_s:.4f}s on one rank; "
            f"disturbed iteration ran {self.slowdown_of_disturbed_iteration:.2f}x longer "
            f"for the whole application"
        )
        return "\n".join(lines)


def figure1(
    *,
    n_iters: int = 6,
    iter_work: int = msecs(40),
    noise_duration: int = msecs(20),
    seed: int = 0,
) -> Figure1Result:
    """Reproduce the Fig. 1 scenario on a 4-CPU machine.

    A 4-rank SPMD app iterates compute+barrier; in the disturbed arm a
    single CFS hog preempts rank 0 in the middle of iteration
    ``n_iters // 2``.  Because barriers wait for the slowest rank, the whole
    application stretches by ~the noise duration.
    """
    from repro.apps.mpi import MpiApplication
    from repro.apps.spmd import Program
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.topology.presets import generic_smp

    disturb_iter = n_iters // 2

    def run(disturb: bool) -> List[float]:
        machine = generic_smp(4)
        kernel = Kernel(machine, KernelConfig.stock(), seed=seed)
        program = Program.iterative(
            name="fig1",
            n_iters=n_iters,
            iter_work=iter_work,
            init_ops=2,
            startup_work=msecs(1),
            finalize_ops=0,
        )
        barrier_times: List[int] = []
        app = MpiApplication(
            kernel, program, 4, on_complete=lambda a: kernel.sim.stop()
        )
        # Record each collective release instant.
        original_release = app._release

        def tracking_release(sync_pos: int, *args) -> None:
            original_release(sync_pos, *args)
            barrier_times.append(kernel.now)

        app._release = tracking_release  # type: ignore[method-assign]
        app.launch()
        if disturb:
            # Inject one hog onto rank 0's CPU mid-iteration.
            def inject() -> None:
                rank0 = app.ranks[0].task
                cpu = rank0.cpu if rank0.cpu is not None else 0
                hog = kernel.spawn(
                    "fig1-hog",
                    affinity=frozenset({cpu}),
                    work=noise_duration,
                    on_segment_end=lambda: None,
                )
                hog.on_segment_end = lambda: kernel.exit(hog)

            # Mid-way through the disturbed iteration.
            eta = msecs(5) + disturb_iter * (iter_work + 1) + iter_work // 2
            kernel.sim.after(eta, inject, label="fig1:inject")
        kernel.sim.run_until(secs(120))
        if len(barrier_times) < n_iters + 1:
            raise RuntimeError("figure1 app did not complete")
        # barrier_times[0] is the start-timer release; diffs are iterations.
        return [
            to_seconds(barrier_times[i + 1] - barrier_times[i])
            for i in range(n_iters)
        ]

    clean = run(False)
    disturbed = run(True)
    return Figure1Result(
        clean_iteration_s=tuple(clean),
        disturbed_iteration_s=tuple(disturbed),
        disturbed_iteration_index=disturb_iter,
        injected_noise_s=to_seconds(noise_duration),
    )


# --------------------------------------------------------------------------
# Figures 2 and 4 — execution-time distributions of ep.A.8
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramFigure:
    """An execution-time distribution figure (Fig. 2 or Fig. 4)."""

    label: str
    regime: str
    histogram: Histogram
    stats: RunStatistics
    campaign: CampaignResult

    def render(self) -> str:
        head = (
            f"{self.label} ({self.regime}): "
            f"min {self.stats.minimum:.2f}s avg {self.stats.mean:.2f}s "
            f"max {self.stats.maximum:.2f}s var {self.stats.variation:.2f}%"
        )
        return (
            head
            + "\n"
            + render_ascii_histogram(self.histogram, title="execution time distribution")
        )


def _histogram_figure(
    regime: str, n_runs: int, seed: int, label: str, n_bins: int, **run_opts
) -> HistogramFigure:
    campaign = run_nas_campaign(
        "ep", "A", regime, n_runs, base_seed=seed,
        resume_missing_ok=True, **run_opts,
    )
    times = campaign.app_times_s()
    return HistogramFigure(
        label=label,
        regime=regime,
        histogram=build_histogram(times, n_bins=n_bins),
        stats=summarize(times),
        campaign=campaign,
    )


def figure2(
    n_runs: int = 100, *, seed: int = 0, n_bins: int = 40, **run_opts
) -> HistogramFigure:
    """Fig. 2: ep.A.8 execution-time distribution under stock Linux —
    expected shape: right-skewed, max/min ≈ 1.7x.  *run_opts* are the
    campaign's execution options."""
    return _histogram_figure(
        "stock", n_runs, seed, "Figure 2: ep.A.8 stock Linux", n_bins,
        **run_opts,
    )


def figure4(
    n_runs: int = 100, *, seed: int = 0, n_bins: int = 40, **run_opts
) -> HistogramFigure:
    """Fig. 4: ep.A.8 under the RT scheduler — tighter than Fig. 2 but with
    a residual tail (RT balancing + migration daemon)."""
    return _histogram_figure(
        "rt", n_runs, seed, "Figure 4: ep.A.8 RT scheduler", n_bins,
        **run_opts,
    )


# --------------------------------------------------------------------------
# Figure 3 — execution time vs software events
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure3Result:
    """Fig. 3a (migrations) and 3b (context switches) for one campaign."""

    migrations: CorrelationReport
    context_switches: CorrelationReport
    campaign: CampaignResult

    def render(self) -> str:
        lines = ["Figure 3: ep.A.8 execution time vs software events (stock Linux)", ""]
        for name, report in (
            ("3a: cpu-migrations", self.migrations),
            ("3b: context-switches", self.context_switches),
        ):
            lines.append(
                f"{name}: pearson r={report.pearson_r:+.3f} "
                f"spearman r={report.spearman_r:+.3f}"
            )
            for x, y, n in report.trend:
                lines.append(f"    {report.event:>16} ~{x:10.1f} -> {y:7.3f}s  (n={n})")
            lines.append("")
        return "\n".join(lines)


def figure3(
    n_runs: int = 100,
    *,
    seed: int = 0,
    campaign: Optional[CampaignResult] = None,
    **run_opts,
) -> Figure3Result:
    """Fig. 3a/3b: positive relation between ep.A.8 execution time and the
    two software events, under stock Linux.  Pass ``campaign`` to reuse the
    Figure-2 run (the paper uses the same 1000 executions for both)."""
    if campaign is None:
        campaign = run_nas_campaign(
            "ep", "A", "stock", n_runs, base_seed=seed,
            resume_missing_ok=True, **run_opts,
        )
    times = campaign.app_times_s()
    return Figure3Result(
        migrations=correlate(
            [float(v) for v in campaign.migrations()], times, event="cpu-migrations"
        ),
        context_switches=correlate(
            [float(v) for v in campaign.context_switches()],
            times,
            event="context-switches",
        ),
        campaign=campaign,
    )
