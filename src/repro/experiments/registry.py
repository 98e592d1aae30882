"""Experiment registry: one entry per paper artifact.

Maps DESIGN.md §4's experiment ids to their regenerators so the CLI and the
benchmark harness can enumerate them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    exp_id: str
    paper_artifact: str
    description: str
    #: fn(n_runs, seed, **run_opts) -> object with a .render() method.
    #: *run_opts* are :func:`repro.parallel.run_specs`' execution options
    #: (workers, cache, supervision, resume), forwarded to every campaign
    #: the artifact runs; the ones whose artifact is a single run simply
    #: ignore them.
    run: Callable[..., object]


def _fig1(n_runs: int, seed: int, **run_opts):
    from repro.experiments.figures import figure1

    return figure1(seed=seed)


def _fig2(n_runs: int, seed: int, **run_opts):
    from repro.experiments.figures import figure2

    return figure2(n_runs, seed=seed, **run_opts)


def _fig3(n_runs: int, seed: int, **run_opts):
    from repro.experiments.figures import figure3

    return figure3(n_runs, seed=seed, **run_opts)


def _fig4(n_runs: int, seed: int, **run_opts):
    from repro.experiments.figures import figure4

    return figure4(n_runs, seed=seed, **run_opts)


def _tab1a(n_runs: int, seed: int, **run_opts):
    from repro.experiments.tables import table1

    return table1("stock", n_runs=n_runs, base_seed=seed, **run_opts)


def _tab1b(n_runs: int, seed: int, **run_opts):
    from repro.experiments.tables import table1

    return table1("hpl", n_runs=n_runs, base_seed=seed, **run_opts)


def _tab2(n_runs: int, seed: int, **run_opts):
    from repro.experiments.tables import table2

    return table2(n_runs=n_runs, base_seed=seed, **run_opts)


def _policy(n_runs: int, seed: int, **run_opts):
    from repro.experiments.tables import policy_comparison

    return policy_comparison("ep", "A", n_runs=n_runs, base_seed=seed, **run_opts)


class _ResonanceResult:
    def __init__(self, curves) -> None:
        self.curves = curves

    def render(self) -> str:
        lines = ["Noise resonance: slowdown vs cluster size", ""]
        for label, points in self.curves.items():
            lines.append(label)
            for pt in points:
                lines.append(
                    f"  {pt.nodes:>6} nodes: P(disturbed phase)={pt.p_phase_disturbed:6.3f}"
                    f"  slowdown={pt.slowdown:6.3f}"
                )
            lines.append("")
        return "\n".join(lines)


def _resonance(n_runs: int, seed: int, **run_opts):
    from repro.cluster.resonance import spare_core_comparison

    curves = spare_core_comparison([1, 8, 64, 512, 4096], seed=seed)
    return _ResonanceResult(curves)


class _MultinodeResult:
    def __init__(self, rows) -> None:
        self.rows = rows

    def render(self) -> str:
        lines = ["Multi-node co-simulation: globally synchronized app time", ""]
        lines.append(f"{'nodes':>6} {'stock (s)':>10} {'hpl (s)':>9}")
        for n, stock_t, hpl_t in self.rows:
            lines.append(f"{n:>6} {stock_t:>10.4f} {hpl_t:>9.4f}")
        return "\n".join(lines)


def _multinode(n_runs: int, seed: int, **run_opts):
    from repro.apps.spmd import Program
    from repro.cluster.multinode import run_cluster_job
    from repro.units import msecs

    program = Program.iterative(
        name="mn", n_iters=10, iter_work=msecs(20), init_ops=3, finalize_ops=1
    )
    rows = []
    for n in (1, 2, 4, 8):
        stock_t = run_cluster_job(program, n, regime="stock", seed=seed).app_time_s
        hpl_t = run_cluster_job(program, n, regime="hpl", seed=seed).app_time_s
        rows.append((n, stock_t, hpl_t))
    return _MultinodeResult(rows)


class _DecompositionResult:
    def __init__(self, rows) -> None:
        self.rows = rows

    def render(self) -> str:
        lines = ["Direct vs indirect OS-noise decomposition (SS III)", ""]
        for label, regime, d in self.rows:
            lines.append(f"{label} {regime:>5}: {d.render()}")
        return "\n".join(lines)


def _resilience(n_runs: int, seed: int, **run_opts):
    from repro.experiments.resilience import resilience_campaign

    return resilience_campaign(n_runs=n_runs, base_seed=seed, **run_opts)


def _cluster_resilience(n_runs: int, seed: int, **run_opts):
    from repro.experiments.resilience import cluster_resilience_campaign

    return cluster_resilience_campaign(n_runs=n_runs, base_seed=seed, **run_opts)


def _two_level(n_runs: int, seed: int, **run_opts):
    from repro.experiments.twolevel import two_level_campaign

    return two_level_campaign(n_runs=n_runs, base_seed=seed, **run_opts)


def _batch_resilience(n_runs: int, seed: int, **run_opts):
    from repro.experiments.batchres import batch_resilience_campaign

    return batch_resilience_campaign(n_runs=n_runs, base_seed=seed, **run_opts)


def _decomposition(n_runs: int, seed: int, **run_opts):
    from repro.analysis.decomposition import decompose_nas_noise

    rows = []
    for bench, klass in (("is", "A"), ("cg", "A"), ("ep", "A")):
        for regime in ("stock", "hpl"):
            rows.append(
                (f"{bench}.{klass}.8", regime,
                 decompose_nas_noise(bench, klass, regime=regime, seed=seed))
            )
    return _DecompositionResult(rows)


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        "fig1", "Figure 1",
        "Effect of preempting one rank on a whole parallel application", _fig1,
    ),
    "fig2": Experiment(
        "fig2", "Figure 2",
        "ep.A.8 execution-time distribution, stock Linux", _fig2,
    ),
    "fig3": Experiment(
        "fig3", "Figures 3a/3b",
        "ep.A.8 time vs cpu-migrations and context-switches", _fig3,
    ),
    "fig4": Experiment(
        "fig4", "Figure 4",
        "ep.A.8 execution-time distribution, RT scheduler", _fig4,
    ),
    "tab1a": Experiment(
        "tab1a", "Table Ia",
        "Scheduler OS noise (migrations, switches), stock Linux", _tab1a,
    ),
    "tab1b": Experiment(
        "tab1b", "Table Ib",
        "Scheduler OS noise (migrations, switches), HPL", _tab1b,
    ),
    "tab2": Experiment(
        "tab2", "Table II",
        "NAS execution times, stock vs HPL", _tab2,
    ),
    "policy": Experiment(
        "policy", "SS IV discussion",
        "ep.A.8 under CFS / nice / RT / pinned / HPL", _policy,
    ),
    "resonance": Experiment(
        "resonance", "SS II / SS VI (Petrini)",
        "Noise resonance across cluster sizes; spare-core comparison", _resonance,
    ),
    "multinode": Experiment(
        "multinode", "SS II (extension)",
        "Multi-node co-simulation: resonance measured directly", _multinode,
    ),
    "decompose": Experiment(
        "decompose", "SS III (extension)",
        "Direct vs indirect (cache) noise decomposition", _decomposition,
    ),
    "resilience": Experiment(
        "resilience", "SS IV (robustness extension)",
        "Graceful degradation: 0/1/2 cores offlined mid-run, stock vs HPL",
        _resilience,
    ),
    "cluster-resilience": Experiment(
        "cluster-resilience", "SS II (fault-domain extension)",
        "Multi-node recovery: node crash, straggler, degraded link — "
        "stock vs HPL vs RT",
        _cluster_resilience,
    ),
    "two-level": Experiment(
        "two-level", "SS VI (two-level scheduling extension)",
        "Batch policies (FCFS/EASY/priority/share) x node regimes: does "
        "HPL's noise-immunity survive packing, backfilling, co-location?",
        _two_level,
    ),
    "batch-resilience": Experiment(
        "batch-resilience", "SS VI (robustness extension)",
        "Batch policies x node regimes x fault intensity: node failures, "
        "drains, requeue with checkpoint-aware restart",
        _batch_resilience,
    ),
}


def get_experiment(exp_id: str) -> Experiment:
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id]


def list_experiments() -> List[Experiment]:
    return list(EXPERIMENTS.values())
