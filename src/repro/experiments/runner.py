"""Campaign runner: execute a benchmark N times under a scheduling regime.

Reproduces the paper's measurement discipline: "Unless otherwise stated, we
report statistics over 1000 executions of each benchmark" (§V).  Each
repetition is an independent simulation (fresh kernel, fresh daemons, fresh
launcher chain) with its own derived seed; the *workload* random streams are
named identically across kernel variants, so the stock-vs-HPL comparison
uses common random numbers.

One execution is :func:`run_job` (:func:`run_nas_job` for a NAS benchmark),
which returns the finished :class:`~repro.apps.mpiexec.MpiJob`; callers
read what they need from it — the result, the rank tasks, and whatever was
attached to its kernel (observer, fault injector, watchdog).
:func:`run_program` and :func:`run_nas` are the shortcuts for just the
:class:`~repro.apps.mpiexec.JobResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.units import msecs, secs
from repro.topology.machine import Machine
from repro.topology.presets import power6_js22
from repro.kernel.daemons import DaemonSet, NoiseProfile, cluster_node_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.apps.mpiexec import JobResult, LaunchMode, MpiJob
from repro.apps.nas import nas_program, nas_spec
from repro.apps.spmd import Program
from repro.faults import (
    ClusterTolerance,
    FaultInjector,
    FaultPlan,
    FaultTolerance,
    StarvationWatchdog,
    WatchdogConfig,
)

__all__ = [
    "KERNEL_VARIANTS",
    "build_kernel",
    "RunIncompleteError",
    "resolve_kernel_config",
    "run_job",
    "run_program",
    "run_nas_job",
    "run_nas",
    "build_campaign_specs",
    "run_campaign",
    "run_nas_campaign",
    "CampaignResult",
    "ClusterCampaignResult",
    "build_cluster_specs",
    "run_cluster_campaign",
]

#: Named kernel/mode regimes used throughout the experiments:
#: kernel variant, launch mode.
KERNEL_VARIANTS: Dict[str, Tuple[str, str]] = {
    "stock": ("stock", LaunchMode.CFS),       # Table Ia / II "Std. Linux"
    "nice": ("stock", LaunchMode.NICE),       # §IV nice discussion
    "rt": ("stock", LaunchMode.RT),           # Fig. 4
    "pinned": ("stock", LaunchMode.PINNED),   # §IV static affinity
    "hpl": ("hpl", LaunchMode.HPC),           # Table Ib / II "HPL"
}

#: Job launch instant: daemons get a short head start so the node is in
#: steady state when the application arrives.
_JOB_START = msecs(50)


def resolve_kernel_config(
    variant: str, config: Optional[KernelConfig] = None
) -> KernelConfig:
    """The configuration actually booted for *variant* (explicit *config*
    wins).  Exposed so provenance can digest exactly what ran."""
    if config is not None:
        return config
    if variant == "stock":
        return KernelConfig.stock()
    if variant == "hpl":
        return KernelConfig.hpl()
    raise ValueError(f"unknown kernel variant {variant!r}")


def build_kernel(
    variant: str,
    *,
    machine: Optional[Machine] = None,
    seed: int = 0,
    config: Optional[KernelConfig] = None,
) -> Kernel:
    """Boot a kernel of the named *variant* on *machine* (default js22)."""
    if machine is None:
        machine = power6_js22()
    return Kernel(machine, resolve_kernel_config(variant, config), seed=seed)


class RunIncompleteError(RuntimeError):
    """A single-node run reached its safety horizon without finishing (for
    example, pinned ranks parked on a CPU that never comes back)."""


def run_job(
    program: Program,
    nprocs: int,
    regime: str = "stock",
    *,
    seed: int = 0,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
    instrument: Optional[Callable[[Kernel], object]] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
    with_watchdog: bool = False,
) -> MpiJob:
    """One full simulated execution of *program* under *regime* (a
    :data:`KERNEL_VARIANTS` key); returns the finished :class:`MpiJob`.

    Everything the run produced is reachable from the job: ``job.result``,
    the rank tasks through ``job.app.rank_tasks()``, and the kernel as
    ``job.kernel``, which holds whatever was attached to it
    (``kernel.observer``, ``kernel.fault_injector``, ``kernel.watchdog``).

    *instrument* runs right after the kernel boots, before any daemon or
    application task exists — the attachment point for observability, e.g.
    ``instrument=observe`` or ``functools.partial(observe,
    with_trace=False)``.  Attaching is strictly passive, so instrumented
    and bare runs of the same seed are identical.

    *fault_plan* arms a :class:`~repro.faults.FaultInjector` against the
    booted kernel (empty plans are not armed, keeping fault-free runs
    bit-identical); *fault_tolerance* sets the MPI runtime's reaction to
    rank death; *with_watchdog* starts the starvation watchdog.
    """
    if regime not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown regime {regime!r}; choose from {sorted(KERNEL_VARIANTS)}"
        )
    variant, mode = KERNEL_VARIANTS[regime]
    kernel = build_kernel(variant, machine=machine, seed=seed, config=kernel_config)
    if instrument is not None:
        instrument(kernel)
    profile = noise if noise is not None else cluster_node_profile()
    daemons = DaemonSet(kernel, profile)
    daemons.start()

    job = MpiJob(
        kernel,
        program,
        nprocs,
        mode=mode,
        cold_speed=cold_speed,
        rewarm_scale=rewarm_scale,
        on_complete=lambda result: kernel.sim.stop(),
        fault_tolerance=fault_tolerance,
    )
    if fault_plan is not None and not fault_plan.is_empty:
        FaultInjector(kernel, fault_plan, app=job.app).arm()
    if with_watchdog:
        StarvationWatchdog(kernel, WatchdogConfig()).start()
    job.start(at=_JOB_START)
    # Generous safety net: storms can stretch a run far past its clean
    # time, but never this far.
    horizon = _JOB_START + 200 * program.total_compute + secs(600)
    kernel.sim.run_until(horizon)
    if job.result is None:
        raise RunIncompleteError(
            f"{program.name} under {regime!r} (seed {seed}) did not finish by "
            f"t={horizon}us — events processed: {kernel.sim.events_processed}"
        )
    return job


def run_program(
    program: Program,
    nprocs: int,
    regime: str = "stock",
    **kwargs,
) -> JobResult:
    """The :class:`~repro.apps.mpiexec.JobResult` of :func:`run_job`."""
    return run_job(program, nprocs, regime, **kwargs).result


def run_nas_job(
    name: str,
    klass: str,
    regime: str = "stock",
    *,
    machine: Optional[Machine] = None,
    **kwargs,
) -> MpiJob:
    """:func:`run_job` on one NAS benchmark, built for *machine* (default
    js22) with its cold-start calibration, e.g.
    ``run_nas_job("ep", "A", "hpl", instrument=observe)``."""
    if machine is None:
        machine = power6_js22()
    spec = nas_spec(name, klass)
    return run_job(
        nas_program(spec, machine),
        spec.nprocs,
        regime,
        machine=machine,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        **kwargs,
    )


def run_nas(
    name: str,
    klass: str,
    regime: str = "stock",
    *,
    seed: int = 0,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
) -> JobResult:
    """One execution of a NAS benchmark, e.g. ``run_nas("ep", "A", "hpl")``."""
    return run_nas_job(
        name, klass, regime,
        seed=seed, machine=machine, noise=noise, kernel_config=kernel_config,
    ).result


@dataclass
class CampaignResult:
    """N repetitions of one configuration."""

    label: str
    regime: str
    results: List[JobResult]
    #: Worker processes the campaign executed on (1 = in-process serial).
    jobs: int = 1
    #: Repetitions answered from the result cache instead of simulated.
    cache_hits: int = 0
    #: Run indices salvaged as explicit holes under ``allow_partial``
    #: (empty on complete campaigns).
    holes: List[int] = field(default_factory=list)
    #: Retry attempts the supervisor performed beyond first attempts.
    retries: int = 0
    #: Repetitions replayed from the crash-safe journal on ``--resume``.
    replayed: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.results)

    def app_times_s(self) -> List[float]:
        return [r.app_time_s for r in self.results]

    def migrations(self) -> List[int]:
        return [r.cpu_migrations for r in self.results]

    def context_switches(self) -> List[int]:
        return [r.context_switches for r in self.results]


def _derive_seed(base_seed: int, run_index: int) -> int:
    # Any injective-enough mixing works; keep it explicit and stable.
    # Pure integer arithmetic — never hash() — so derived seeds are equal
    # across Python versions, platforms and processes (parallel campaigns'
    # correctness rests on this; see tests/test_derive_seed.py).
    return (base_seed * 1_000_003 + run_index * 7_919 + 17) & 0x7FFFFFFF


def _execute_spec(spec: "RunSpec") -> Tuple[JobResult, Optional[Dict]]:
    """Execute one campaign repetition described by a picklable spec.

    This is the node-run executor for ``run_specs``: module-level (crosses
    the process boundary by reference) and a pure function of the spec's
    content, so a worker-pool run is bit-identical to the serial loop.
    Returns the :class:`JobResult` plus the provenance ``faults`` object
    (None on fault-free runs) — the injector itself cannot cross back, so
    its account is flattened here.
    """
    job = run_job(
        spec.program,
        spec.nprocs,
        spec.regime,
        seed=spec.seed,
        machine=spec.machine,
        noise=spec.noise,
        kernel_config=spec.kernel_config,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        fault_plan=spec.fault_plan,
        fault_tolerance=spec.fault_tolerance,
    )
    result = job.result
    faults: Optional[Dict] = None
    plan = spec.fault_plan
    if plan is not None and not plan.is_empty:
        injector = job.kernel.fault_injector
        stats = result.app_stats
        faults = {
            "plan_label": plan.label,
            "plan_digest": plan.digest(),
            "n_events": len(plan),
            "injected": injector.faults_injected() if injector else 0,
            "aborted": stats.aborted,
            "rank_crashes": stats.rank_crashes,
            "restarts": stats.restarts,
            "detection_latency_us": stats.detection_latency_us,
            "lost_work_us": stats.lost_work_us,
            "recovery_time_us": stats.recovery_time_us,
        }
    return result, faults


def build_campaign_specs(
    program_factory: Callable[[], Program],
    nprocs: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    machine_factory: Callable[[], Machine] = power6_js22,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
    fault_plan: Optional[FaultPlan] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
) -> List["RunSpec"]:
    """Materialize a campaign's repetitions as picklable specs.

    Factories run here, in the parent, in run-index order — exactly where
    and when the serial loop called them — so closures never need to
    pickle and factory side effects (none are expected) keep their order.
    """
    from repro.parallel.jobspec import RunSpec

    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if regime not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown regime {regime!r}; choose from {sorted(KERNEL_VARIANTS)}"
        )
    return [
        RunSpec(
            run_index=i,
            seed=_derive_seed(base_seed, i),
            program=program_factory(),
            nprocs=nprocs,
            regime=regime,
            machine=machine_factory(),
            noise=noise,
            kernel_config=kernel_config,
            cold_speed=cold_speed,
            rewarm_scale=rewarm_scale,
            fault_plan=fault_plan,
            fault_tolerance=fault_tolerance,
        )
        for i in range(n_runs)
    ]


def run_campaign(
    program_factory: Callable[[], Program],
    nprocs: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    machine_factory: Callable[[], Machine] = power6_js22,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    cold_speed: Optional[float] = None,
    rewarm_scale: float = 1.0,
    label: str = "",
    fault_plan: Optional[FaultPlan] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
    **run_opts,
) -> CampaignResult:
    """Run *n_runs* independent repetitions.

    Faults: *fault_plan* applies the same plan to every repetition.  When
    a plan is in force, each provenance record gains a ``faults`` object
    (plan digest + recovery metrics), so faulted and fault-free campaigns
    remain distinguishable in the audit trail forever.

    *run_opts* are the execution options, forwarded unchanged to
    :func:`repro.parallel.run_specs`, which declares and documents them:
    *provenance_path*, *n_jobs*, *use_cache*/*cache_dir*, *progress*,
    *supervise*, *resume*/*resume_missing_ok* and *telemetry*.  Every
    output is byte-identical whatever *n_jobs* is, across cache-warm
    resume, and with telemetry on or off.
    """
    from repro.obs.provenance import run_record
    from repro.parallel.engine import run_specs

    specs = build_campaign_specs(
        program_factory,
        nprocs,
        regime,
        n_runs,
        base_seed=base_seed,
        machine_factory=machine_factory,
        noise=noise,
        kernel_config=kernel_config,
        cold_speed=cold_speed,
        rewarm_scale=rewarm_scale,
        fault_plan=fault_plan,
        fault_tolerance=fault_tolerance,
    )
    variant = KERNEL_VARIANTS[regime][0]
    booted_config = resolve_kernel_config(variant, kernel_config)
    bench = label or specs[0].program.name

    def to_record(record) -> Dict[str, object]:
        return run_record(
            record.result,
            bench=bench,
            regime=regime,
            run_index=record.run_index,
            seed=record.seed,
            variant=variant,
            config=booted_config,
            faults=record.faults,
        )

    return CampaignResult(
        **run_specs(
            specs,
            _execute_spec,
            to_record,
            label=bench,
            regime=regime,
            base_seed=base_seed,
            **run_opts,
        )
    )


def run_nas_campaign(
    name: str,
    klass: str,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    noise: Optional[NoiseProfile] = None,
    kernel_config: Optional[KernelConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
    **run_opts,
) -> CampaignResult:
    """The paper's unit of measurement: N runs of one NAS benchmark under
    one regime (paper: N=1000).  *run_opts* go to :func:`run_campaign`."""
    spec = nas_spec(name, klass)

    def factory() -> Program:
        return nas_program(spec, power6_js22())

    return run_campaign(
        factory,
        spec.nprocs,
        regime,
        n_runs,
        base_seed=base_seed,
        noise=noise,
        kernel_config=kernel_config,
        cold_speed=spec.cold_speed,
        rewarm_scale=spec.rewarm_scale,
        label=spec.label,
        fault_plan=fault_plan,
        fault_tolerance=fault_tolerance,
        **run_opts,
    )


# --------------------------------------------------------- cluster campaigns

#: Regimes ClusterJob accepts (a subset of KERNEL_VARIANTS: multi-node runs
#: launch through MpiApplication directly, so only kernel-variant/policy
#: regimes apply — nice/pinned are launcher-chain features).
CLUSTER_REGIMES: Tuple[str, ...] = ("stock", "hpl", "rt")


def _execute_cluster_spec(spec: "ClusterRunSpec") -> Tuple["ClusterResult", Optional[Dict]]:
    """Execute one multi-node campaign repetition from a picklable spec.

    The cluster analogue of :func:`_execute_spec`: module-level, a pure
    function of the spec's content, and it flattens the fault domain's
    account (per-node plan digests + the coordinator's detection/recovery
    accounting) into the provenance ``faults`` object before crossing back
    over the process boundary.
    """
    from repro.cluster.multinode import ClusterJob

    machines = spec.machines
    job = ClusterJob(
        spec.program,
        n_nodes=spec.n_nodes,
        nprocs_per_node=spec.nprocs_per_node,
        regime=spec.regime,
        seed=spec.seed,
        machine_factories=(
            [lambda m=m: m for m in machines] if machines is not None else None
        ),
        noise=spec.noise,
        internode_latency=spec.internode_latency,
        fault_plans=(
            dict(spec.fault_plans) if spec.fault_plans is not None else None
        ),
        tolerance=spec.tolerance,
        spare_nodes=spec.spare_nodes,
    )
    result = job.run()
    faults: Optional[Dict] = None
    if spec.fault_plans:
        faults = {
            "plans": {
                str(node): {
                    "label": plan.label,
                    "digest": plan.digest(),
                    "n_events": len(plan),
                }
                for node, plan in spec.fault_plans
            },
            "tolerance": (
                spec.tolerance.as_dict() if spec.tolerance is not None else None
            ),
            "injected": result.faults_injected,
            "node_crashes": result.node_crashes,
            "detections": result.detections,
            "restarts": result.restarts,
            "failovers": result.failovers,
            "shrinks": result.shrinks,
            "detection_latency_us": result.detection_latency_us,
            "lost_work_us": result.lost_work_us,
            "recovery_time_us": result.recovery_time_us,
        }
    return result, faults


def _count_recovery(record, telemetry) -> None:
    """Bump the ``cluster.*`` recovery counters for one faulted repetition."""
    if record.faults:
        reg = telemetry.registry
        reg.counter("cluster.detections").inc(record.faults["detections"])
        reg.counter("cluster.restarts").inc(record.faults["restarts"])
        reg.counter("cluster.failovers").inc(record.faults["failovers"])


@dataclass
class ClusterCampaignResult:
    """N repetitions of one multi-node configuration."""

    label: str
    regime: str
    results: List["ClusterResult"]
    jobs: int = 1
    cache_hits: int = 0
    holes: List[int] = field(default_factory=list)
    retries: int = 0
    replayed: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.results)

    def app_times_s(self) -> List[float]:
        return [r.app_time_s for r in self.results]

    def total_detections(self) -> int:
        return sum(r.detections for r in self.results)

    def total_restarts(self) -> int:
        return sum(r.restarts for r in self.results)

    def total_failovers(self) -> int:
        return sum(r.failovers for r in self.results)


def build_cluster_specs(
    program_factory: Callable[[], Program],
    n_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    nprocs_per_node: int = 8,
    machine_factories: Optional[List[Callable[[], Machine]]] = None,
    noise: Optional[NoiseProfile] = None,
    internode_latency: int = 30,
    fault_plans: Optional[Dict[int, FaultPlan]] = None,
    tolerance: Optional[ClusterTolerance] = None,
    spare_nodes: int = 0,
) -> List["ClusterRunSpec"]:
    """Materialize a multi-node campaign's repetitions as picklable specs.

    Mirrors :func:`build_campaign_specs`: factories run here, in the
    parent, in run-index order.  ``machine_factories`` (n_nodes or
    n_nodes + spare_nodes entries) builds a heterogeneous cluster — e.g.
    one half-speed straggler node.
    """
    from repro.parallel.jobspec import ClusterRunSpec

    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if regime not in CLUSTER_REGIMES:
        raise ValueError(
            f"unknown cluster regime {regime!r}; choose from {CLUSTER_REGIMES}"
        )
    total_nodes = n_nodes + spare_nodes
    if machine_factories is not None and len(machine_factories) not in (
        n_nodes,
        total_nodes,
    ):
        raise ValueError("machine_factories must have one entry per node")
    plans = tuple(sorted(fault_plans.items())) if fault_plans else None
    return [
        ClusterRunSpec(
            run_index=i,
            seed=_derive_seed(base_seed, i),
            program=program_factory(),
            n_nodes=n_nodes,
            nprocs_per_node=nprocs_per_node,
            regime=regime,
            machines=(
                tuple(f() for f in machine_factories)
                if machine_factories is not None else None
            ),
            noise=noise,
            internode_latency=internode_latency,
            fault_plans=plans,
            tolerance=tolerance,
            spare_nodes=spare_nodes,
        )
        for i in range(n_runs)
    ]


def run_cluster_campaign(
    program_factory: Callable[[], Program],
    n_nodes: int,
    regime: str,
    n_runs: int,
    *,
    base_seed: int = 0,
    nprocs_per_node: int = 8,
    machine_factories: Optional[List[Callable[[], Machine]]] = None,
    noise: Optional[NoiseProfile] = None,
    internode_latency: int = 30,
    fault_plans: Optional[Dict[int, FaultPlan]] = None,
    tolerance: Optional[ClusterTolerance] = None,
    spare_nodes: int = 0,
    label: str = "",
    **run_opts,
) -> ClusterCampaignResult:
    """Run *n_runs* independent multi-node repetitions.

    The cluster analogue of :func:`run_campaign`, run by the same driver
    (:func:`repro.parallel.run_specs`) — supervised execution, the content-
    addressed result cache, journal/resume, streaming telemetry — so every
    invariant that holds for single-node campaigns (bit-identical results
    at any ``--jobs``, cache soundness, auditable holes) holds here too;
    *run_opts* are that driver's execution options, forwarded unchanged.
    Provenance records use :func:`~repro.obs.provenance.cluster_run_record`
    (``kind: "cluster"``); faulted repetitions additionally bump the
    ``cluster.detections`` / ``cluster.restarts`` / ``cluster.failovers``
    telemetry counters, so a resilience campaign's recovery traffic shows
    up in the metrics snapshot next to cache and retry counts.
    """
    from repro.obs.provenance import cluster_run_record
    from repro.parallel.engine import run_specs

    specs = build_cluster_specs(
        program_factory,
        n_nodes,
        regime,
        n_runs,
        base_seed=base_seed,
        nprocs_per_node=nprocs_per_node,
        machine_factories=machine_factories,
        noise=noise,
        internode_latency=internode_latency,
        fault_plans=fault_plans,
        tolerance=tolerance,
        spare_nodes=spare_nodes,
    )
    bench = label or specs[0].program.name

    def to_record(record) -> Dict[str, object]:
        return cluster_run_record(
            record.result,
            bench=bench,
            regime=regime,
            run_index=record.run_index,
            seed=record.seed,
            faults=record.faults,
        )

    return ClusterCampaignResult(
        **run_specs(
            specs,
            _execute_cluster_spec,
            to_record,
            _count_recovery,
            label=bench,
            regime=regime,
            base_seed=base_seed,
            **run_opts,
        )
    )
