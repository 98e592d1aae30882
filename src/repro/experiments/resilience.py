"""Resilience campaign: graceful degradation under CPU loss.

The paper's HPL kernel wins its benchmarks by *disabling* dynamic load
balancing (§IV) — which raises an obvious robustness question it never
tests: what happens when hardware disappears mid-run on a kernel that
refuses to rebalance?  This campaign answers it by offlining 0, 1 or 2
whole cores (both SMT threads) ~40% into an HPL-style run and comparing
time-to-completion, stock vs HPL.

The story the numbers tell:

* **stock** degrades smoothly — the periodic balancer re-spreads the
  evacuated ranks within a few balance intervals, at the price of dozens
  of extra migrations;
* **hpl** degrades just as gracefully on a *fraction* of the migration
  budget: forced evacuation is the one post-fork migration it ever
  performs, and because it is routed through the same topology-aware
  placer as the fork, the one-shot placement lands where the balancer
  would eventually have settled anyway.

Every repetition must finish — a hung run raises, so "completed N/N" in
the table is a real invariant, not a hope.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, pvariance
from typing import List, Optional

from repro.units import msecs
from repro.topology.presets import power6_js22
from repro.apps.spmd import Program
from repro.faults import ClusterTolerance, FaultEvent, FaultKind, FaultPlan
from repro.faults.plan import offline_core_events
from repro.experiments.runner import (
    _JOB_START,
    CampaignResult,
    ClusterCampaignResult,
    run_campaign,
    run_cluster_campaign,
)

__all__ = [
    "ResilienceRow",
    "ResilienceResult",
    "resilience_campaign",
    "ClusterResilienceRow",
    "ClusterResilienceResult",
    "cluster_resilience_campaign",
]

#: Fraction of the fault-free mean wall time at which the cores die.
_OFFLINE_FRAC = 0.4


@dataclass
class ResilienceRow:
    """One (regime, cores offlined) cell of the comparison."""

    regime: str
    cores_offline: int
    offlined_cpus: List[int]
    n_runs: int
    completed: int
    mean_s: float
    min_s: float
    max_s: float
    var_s2: float
    mean_migrations: float

    @property
    def slowdown(self) -> float:
        """Filled in by the campaign relative to the same regime's 0-core
        row; 1.0 for the baseline itself."""
        return self._slowdown

    _slowdown: float = 1.0


@dataclass
class ResilienceResult:
    """The full stock-vs-HPL degradation table."""

    rows: List[ResilienceRow]
    n_runs: int

    def render(self) -> str:
        lines = [
            "Resilience: time-to-completion with 0/1/2 cores offlined mid-run",
            f"({self.n_runs} runs per cell; cores die at "
            f"{int(_OFFLINE_FRAC * 100)}% of the fault-free mean wall time)",
            "",
            f"{'regime':>7} {'cores off':>9} {'cpus':>10} {'done':>7} "
            f"{'mean (s)':>9} {'min (s)':>8} {'max (s)':>8} "
            f"{'slowdown':>9} {'migr':>7}",
        ]
        for row in self.rows:
            cpus = ",".join(str(c) for c in row.offlined_cpus) or "-"
            lines.append(
                f"{row.regime:>7} {row.cores_offline:>9} {cpus:>10} "
                f"{row.completed:>3}/{row.n_runs:<3} "
                f"{row.mean_s:>9.4f} {row.min_s:>8.4f} {row.max_s:>8.4f} "
                f"{row.slowdown:>8.2f}x {row.mean_migrations:>7.1f}"
            )
        return "\n".join(lines)


def _row(regime: str, k: int, cpus: List[int], campaign: CampaignResult) -> ResilienceRow:
    walls = [r.wall_time / 1_000_000 for r in campaign.results]
    return ResilienceRow(
        regime=regime,
        cores_offline=k,
        offlined_cpus=cpus,
        n_runs=campaign.n_runs,
        completed=len(walls),
        mean_s=mean(walls),
        min_s=min(walls),
        max_s=max(walls),
        var_s2=pvariance(walls),
        mean_migrations=mean(r.cpu_migrations for r in campaign.results),
    )


def resilience_campaign(
    n_runs: int = 5,
    base_seed: int = 0,
    *,
    n_iters: int = 10,
    iter_work: int = msecs(20),
    nprocs: Optional[int] = None,
    **run_opts,
) -> ResilienceResult:
    """Run the 0/1/2-cores-offline comparison on the js22 preset.

    *run_opts* are every cell's execution options (workers, result cache,
    supervision, resume — see :func:`repro.parallel.run_specs`), applied
    journal-lenient like every multi-campaign driver."""
    machine = power6_js22()
    if nprocs is None:
        nprocs = machine.n_cpus

    def factory() -> Program:
        return Program.iterative(
            name="resil", n_iters=n_iters, iter_work=iter_work,
            init_ops=3, finalize_ops=1,
        )

    rows: List[ResilienceRow] = []
    for regime in ("stock", "hpl"):
        baseline = run_campaign(
            factory, nprocs, regime, n_runs, base_seed=base_seed,
            resume_missing_ok=True, **run_opts,
        )
        base_row = _row(regime, 0, [], baseline)
        rows.append(base_row)
        mean_wall = mean(r.wall_time for r in baseline.results)
        offline_at = _JOB_START + int(_OFFLINE_FRAC * mean_wall)
        for k in (1, 2):
            plan = FaultPlan.schedule(
                offline_core_events(machine, k, offline_at),
                label=f"offline-{k}core",
            )
            campaign = run_campaign(
                factory, nprocs, regime, n_runs,
                base_seed=base_seed, fault_plan=plan,
                resume_missing_ok=True, **run_opts,
            )
            row = _row(regime, k, [e.cpu for e in plan.events], campaign)
            row._slowdown = row.mean_s / base_row.mean_s
            rows.append(row)
    return ResilienceResult(rows=rows, n_runs=n_runs)


# ------------------------------------------------------- cluster resilience

#: The cluster-scale fault scenarios, in table order.  Instants are chosen
#: mid-run for the default workload (the job spans roughly 50–110 ms of
#: simulated time), so every fault lands while ranks are computing.
_CLUSTER_SCENARIOS = (
    "baseline",
    "crash+failover",
    "crash+shrink",
    "straggler",
    "slow-link",
)


@dataclass
class ClusterResilienceRow:
    """One (regime, scenario) cell of the cluster comparison."""

    regime: str
    scenario: str
    n_runs: int
    completed: int
    mean_s: float
    min_s: float
    max_s: float
    slowdown: float
    detections: int
    restarts: int
    failovers: int
    shrinks: int
    mean_lost_ms: float
    mean_recovery_ms: float


@dataclass
class ClusterResilienceResult:
    """The full stock-vs-HPL-vs-RT cluster fault-domain table."""

    rows: List[ClusterResilienceRow]
    n_runs: int
    n_nodes: int

    def render(self) -> str:
        lines = [
            "Cluster resilience: multi-node completion under fault domains",
            f"({self.n_runs} runs per cell, {self.n_nodes} nodes; crash rows "
            "recover via coordinated checkpoint/restart)",
            "",
            f"{'regime':>7} {'scenario':>15} {'done':>7} {'mean (s)':>9} "
            f"{'slowdown':>9} {'det':>4} {'rst':>4} {'fo':>3} {'shr':>4} "
            f"{'lost (ms)':>10} {'recov (ms)':>11}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.regime:>7} {row.scenario:>15} "
                f"{row.completed:>3}/{row.n_runs:<3} {row.mean_s:>9.4f} "
                f"{row.slowdown:>8.2f}x {row.detections:>4} {row.restarts:>4} "
                f"{row.failovers:>3} {row.shrinks:>4} "
                f"{row.mean_lost_ms:>10.2f} {row.mean_recovery_ms:>11.2f}"
            )
        return "\n".join(lines)


def _cluster_row(
    regime: str, scenario: str, campaign: ClusterCampaignResult, base_mean: float
) -> ClusterResilienceRow:
    times = campaign.app_times_s()
    mean_s = mean(times)
    return ClusterResilienceRow(
        regime=regime,
        scenario=scenario,
        n_runs=campaign.n_runs,
        completed=len(times),
        mean_s=mean_s,
        min_s=min(times),
        max_s=max(times),
        slowdown=mean_s / base_mean if base_mean > 0 else 1.0,
        detections=campaign.total_detections(),
        restarts=campaign.total_restarts(),
        failovers=campaign.total_failovers(),
        shrinks=sum(r.shrinks for r in campaign.results),
        mean_lost_ms=mean(r.lost_work_us for r in campaign.results) / 1000,
        mean_recovery_ms=mean(r.recovery_time_us for r in campaign.results) / 1000,
    )


def cluster_resilience_campaign(
    n_runs: int = 3,
    base_seed: int = 0,
    *,
    n_nodes: int = 3,
    nprocs_per_node: int = 4,
    n_iters: int = 10,
    iter_work: int = msecs(20),
    regimes: Optional[List[str]] = None,
    **run_opts,
) -> ClusterResilienceResult:
    """The cluster fault-domain table: stock vs HPL vs RT under node
    crash (failover and shrink-to-fit), a straggler node, and a degraded
    interconnect.

    Every cell runs through :func:`run_cluster_campaign` — the cached,
    supervised campaign pipeline, with *run_opts* as its execution options
    — so repetitions parallelize, cache, and resume exactly like the
    single-node campaigns.  Every crash cell must
    *complete*: a cluster that fails to recover raises instead of quietly
    producing a row, so "done N/N" is an invariant.
    """
    if regimes is None:
        regimes = ["stock", "hpl", "rt"]

    def factory() -> Program:
        return Program.iterative(
            name="cresil", n_iters=n_iters, iter_work=iter_work,
            init_ops=3, finalize_ops=1,
        )

    crash_plan = {
        0: FaultPlan.schedule(
            [FaultEvent(at=msecs(80), kind=FaultKind.NODE_CRASH)],
            label="node0-crash",
        )
    }
    straggler_plan = {
        1: FaultPlan.schedule(
            [
                FaultEvent(
                    at=msecs(70),
                    kind=FaultKind.NODE_SLOWDOWN,
                    factor=0.5,
                    duration=msecs(120),
                )
            ],
            label="node1-straggler",
        )
    }
    link_plan = {
        0: FaultPlan.schedule(
            [
                FaultEvent(
                    at=msecs(60),
                    kind=FaultKind.LINK_DEGRADE,
                    latency=2_000,
                    duration=msecs(150),
                )
            ],
            label="slow-link",
        )
    }
    def restart_tol(recover: str) -> ClusterTolerance:
        return ClusterTolerance(
            mode="restart", recover=recover, checkpoint_every=2,
            detection_timeout=8_000, restart_cost=3_000,
        )
    scenarios = {
        "baseline": dict(),
        "crash+failover": dict(
            fault_plans=crash_plan, tolerance=restart_tol("failover"),
            spare_nodes=1,
        ),
        "crash+shrink": dict(
            fault_plans=crash_plan, tolerance=restart_tol("shrink"),
        ),
        "straggler": dict(fault_plans=straggler_plan),
        "slow-link": dict(fault_plans=link_plan),
    }

    rows: List[ClusterResilienceRow] = []
    for regime in regimes:
        base_mean = 0.0
        for scenario in _CLUSTER_SCENARIOS:
            campaign = run_cluster_campaign(
                factory, n_nodes, regime, n_runs,
                base_seed=base_seed,
                nprocs_per_node=nprocs_per_node,
                label=f"cresil-{scenario}",
                resume_missing_ok=True,
                **scenarios[scenario],
                **run_opts,
            )
            row = _cluster_row(regime, scenario, campaign, base_mean)
            if scenario == "baseline":
                base_mean = row.mean_s
                row.slowdown = 1.0
            rows.append(row)
    return ClusterResilienceResult(rows=rows, n_runs=n_runs, n_nodes=n_nodes)
