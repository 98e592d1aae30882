"""True multi-node co-simulation.

:mod:`repro.cluster.resonance` *extrapolates* cluster behaviour from one
node's delay profile.  This module instead *simulates* a small cluster
directly: N independent node kernels (each with its own machine, scheduler,
and daemon population) share one simulated clock, and the application's
collectives synchronize across all of them — every phase genuinely waits for
the globally slowest rank.  It exists to

* demonstrate §II's noise-resonance mechanism end to end (one job, many
  nodes, per-phase max-coupling), and
* validate the bootstrap extrapolation: the co-simulated slowdown at small N
  should track :func:`repro.cluster.resonance.resonance_curve`.

Scale is bounded by simulation cost (every node's daemons tick), so this is
for N up to a few dozen; the bootstrap covers the thousands.

The :class:`ClusterJob` is also the cluster's **global failure detector**
and recovery coordinator (DESIGN §12): node fail-stops and rank crashes are
noticed by heartbeat timeout at collective boundaries, and a cluster-level
:class:`~repro.faults.tolerance.ClusterTolerance` decides between aborting
the job and rolling every surviving node back to the last cluster-wide
coordinated checkpoint — onto a pre-provisioned spare node (failover) or a
shrunken decomposition across the survivors (shrink-to-fit).  Epoch fencing
drops stale ``xsync`` releases scheduled by a dead incarnation.  All of the
detector/checkpoint machinery is pure state when no fault plan is armed: a
fault-free run schedules exactly the same events as before the fault layer
existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.units import msecs, secs
from repro.sim.engine import Simulator
from repro.topology.machine import Machine
from repro.topology.presets import power6_js22
from repro.kernel.daemons import DaemonSet, NoiseProfile, cluster_node_profile
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.task import SchedPolicy
from repro.apps.mpi import MpiApplication
from repro.apps.spmd import Program
from repro.faults import ClusterTolerance, FaultInjector, FaultKind, FaultPlan
from repro.faults.tolerance import FaultTolerance

__all__ = [
    "NodeHandle",
    "ClusterJob",
    "ClusterResult",
    "ClusterIncompleteError",
    "run_cluster_job",
]


class ClusterIncompleteError(RuntimeError):
    """A multi-node run failed or stalled instead of completing.

    Carries the diagnosis a bare ``RuntimeError`` used to throw away:
    per-node progress (``node_positions``) and the live event queue
    (``queue_summary``), so a wedged collective names the node that never
    arrived rather than just "incomplete".

    The keyword arguments default to empty so the standard exception
    pickle round-trip (``cls(*args)`` with the formatted message) works —
    a worker process raising this must not break the campaign pool.
    """

    def __init__(
        self,
        message: str,
        *,
        node_positions: Optional[Dict[int, Dict]] = None,
        queue_summary: str = "",
    ) -> None:
        node_positions = node_positions or {}
        lines = [message]
        for node in sorted(node_positions):
            pos = node_positions[node]
            lines.append(
                f"  node {node}: "
                + ", ".join(f"{k}={v}" for k, v in pos.items())
            )
        if queue_summary:
            lines.append(queue_summary)
        super().__init__("\n".join(lines))
        self.node_positions = node_positions
        self.queue_summary = queue_summary


@dataclass
class NodeHandle:
    """One node's kernel, daemons, and application shard."""

    index: int
    kernel: Kernel
    daemons: DaemonSet
    app: MpiApplication
    #: Armed when the job carries a fault plan for this node.
    injector: Optional[FaultInjector] = None
    #: Pre-provisioned failover target (idle until adopted).
    spare: bool = False
    #: Fail-stopped by a ``node_crash`` fault.
    dead: bool = False


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of a multi-node run."""

    n_nodes: int
    nprocs_per_node: int
    #: Globally-synchronized application time (timer window), µs.
    app_time: int
    #: Per-node rank statistics (participants first, then spares).
    node_migrations: Tuple[int, ...]
    node_involuntary_switches: Tuple[int, ...]
    #: Fault-domain accounting — all zero/None on a fault-free run.
    n_spares: int = 0
    surviving_nodes: int = 0
    node_crashes: int = 0
    detections: int = 0
    restarts: int = 0
    failovers: int = 0
    shrinks: int = 0
    detection_latency_us: Optional[int] = None
    lost_work_us: int = 0
    recovery_time_us: int = 0
    faults_injected: int = 0

    @property
    def app_time_s(self) -> float:
        return self.app_time / 1_000_000


class ClusterJob:
    """Runs one SPMD program across *n_nodes* co-simulated nodes.

    All nodes share a :class:`Simulator`; each node gets its own
    :class:`Kernel` (scheduler state is strictly per node) and its own
    daemon population drawing from the shared RNG.  The program's SYNC
    phases become *global* collectives through the MPI runtime's
    ``collective_bridge``: a phase releases only after the last rank of the
    last node arrived, plus the inter-node latency.

    Pass ``machine_factories`` (one per node) for a heterogeneous cluster —
    e.g. one half-speed node to study stragglers: with global collectives,
    the whole job runs at the slowest node's pace, which is why the noise
    the paper fights matters so much more at scale.  Nodes without an
    entry (all of them by default) boot the js22 preset.

    With a :class:`~repro.faults.tolerance.ClusterTolerance` the job also
    survives node fail-stops and rank crashes: the coordinator detects the
    loss by heartbeat timeout, rolls every surviving node back to the last
    coordinated checkpoint (taken every ``checkpoint_every`` global
    collectives), and continues on a spare node (``recover="failover"``,
    ``spare_nodes > 0``) or a shrunken decomposition (``recover="shrink"``,
    survivors' per-phase work inflated by ``old/new`` node count).
    """

    def __init__(
        self,
        program: Program,
        *,
        n_nodes: int,
        nprocs_per_node: int = 8,
        regime: str = "stock",
        seed: int = 0,
        machine_factories: Optional[List[Callable[[], Machine]]] = None,
        noise: Optional[NoiseProfile] = None,
        internode_latency: int = 30,
        fault_plans: Optional[Dict[int, FaultPlan]] = None,
        tolerance: Optional[ClusterTolerance] = None,
        spare_nodes: int = 0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if regime not in ("stock", "hpl", "rt"):
            raise ValueError("regime must be stock, hpl, or rt")
        if spare_nodes < 0:
            raise ValueError("spare_nodes cannot be negative")
        total_nodes = n_nodes + spare_nodes
        if fault_plans:
            for node, plan in fault_plans.items():
                if not 0 <= node < n_nodes:
                    raise ValueError(f"fault plan for unknown node {node}")
                for event in plan.events:
                    if event.kind == FaultKind.NODE_CRASH:
                        target = event.node if event.node is not None else node
                        if not 0 <= target < n_nodes:
                            raise ValueError(
                                f"node_crash targets unknown node {target}"
                            )
        self.program = program
        self.n_nodes = n_nodes
        self.nprocs_per_node = nprocs_per_node
        self.regime = regime
        self.internode_latency = internode_latency
        self.tolerance = tolerance
        self.spare_nodes = spare_nodes
        self.sim = Simulator(seed)
        self.nodes: List[NodeHandle] = []
        self._sync_arrived: Dict[int, Set[int]] = {}
        self.result: Optional[ClusterResult] = None

        #: Nodes currently carrying a shard of the job (spares excluded
        #: until adopted, dead nodes removed on fail-stop).
        self._active: Set[int] = set(range(n_nodes))
        self._idle_spares: List[int] = list(range(n_nodes, total_nodes))
        self._terminal_nodes: Set[int] = set()
        self.failed: Optional[str] = None

        #: Cluster incarnation number: bumped on every coordinated
        #: restart/abort so releases scheduled against a dead incarnation
        #: fence themselves out.
        self._epoch = 0
        #: Coordinated-checkpoint state (restart mode only).
        self._sync_count = 0
        self._ckpt_pos = -1
        self._ckpt_time: Optional[int] = None
        self._ckpt_pending: Optional[int] = None
        #: Failure-detector state.
        self._dead_pending: Set[int] = set()
        self._crash_time: Optional[int] = None
        self._detect_armed = False
        #: Shrink-to-fit work multiplier currently applied to survivors.
        self._work_scale = 1.0
        #: Active link degradations: (node, peer, extra_latency) entries.
        self._link_degrades: List[Tuple[Optional[int], Optional[int], int]] = []
        #: Fault-domain accounting.
        self.node_crashes = 0
        self.detections = 0
        self.restarts = 0
        self.failovers = 0
        self.shrinks = 0
        self.detection_latency_us: Optional[int] = None
        self.lost_work_us = 0
        self.recovery_time_us = 0

        self._launch_kwargs: Dict[str, object] = {}
        if regime == "hpl":
            self._launch_kwargs = {"policy": SchedPolicy.HPC}
        elif regime == "rt":
            self._launch_kwargs = {"policy": SchedPolicy.FIFO, "rt_priority": 50}

        if machine_factories is not None and len(machine_factories) not in (
            n_nodes,
            total_nodes,
        ):
            raise ValueError("machine_factories must have one entry per node")
        profile = noise if noise is not None else cluster_node_profile()
        for i in range(total_nodes):
            config = (
                KernelConfig.hpl() if regime == "hpl" else KernelConfig.stock()
            )
            factory = (
                machine_factories[i]
                if machine_factories is not None and i < len(machine_factories)
                else power6_js22
            )
            kernel = Kernel(factory(), config, sim=self.sim)
            daemons = DaemonSet(kernel, profile)
            daemons.start()
            app = MpiApplication(
                kernel,
                program,
                nprocs_per_node,
                rng_label=f"node{i}.app",
                on_complete=lambda app_, node=i: self._node_done(node, app_),
            )
            app.collective_bridge = (
                lambda app_, pos, node=i: self._local_arrived(node, app_, pos)
            )
            app.failure_bridge = (
                lambda app_, node=i: self._rank_failure(node, app_)
            )
            if tolerance is not None:
                # The per-node runtime supplies the heartbeat window; the
                # abort/restart decision is the coordinator's (mode here is
                # never consulted — failure_bridge intercepts first).
                app.fault_tolerance = FaultTolerance(
                    mode="abort", detection_timeout=tolerance.detection_timeout
                )
            injector = None
            plan = (fault_plans or {}).get(i)
            if plan is not None and not plan.is_empty:
                injector = FaultInjector(
                    kernel, plan, app=app, cluster=self, node_index=i
                )
                injector.arm()
            self.nodes.append(
                NodeHandle(i, kernel, daemons, app, injector, spare=i >= n_nodes)
            )

    # ---------------------------------------------------------- collectives

    def _local_arrived(self, node: int, app: MpiApplication, sync_pos: int) -> bool:
        if node not in self._active:
            return True  # stale arrival from a dead or benched incarnation
        arrived = self._sync_arrived.setdefault(sync_pos, set())
        arrived.add(node)
        if len(arrived) == len(self._active):
            del self._sync_arrived[sync_pos]
            phase = self.program.phases[sync_pos]
            delay = max(1, phase.latency + self.internode_latency)
            if self._link_degrades:
                delay += self._collective_extra_latency()
            tol = self.tolerance
            if (
                tol is not None
                and tol.mode == "restart"
                and tol.checkpoint_every > 0
            ):
                self._sync_count += 1
                if self._sync_count % tol.checkpoint_every == 0:
                    # Commit happens at the release instant (first
                    # _global_release for this position), not here: a crash
                    # inside the latency window must roll back to the
                    # *previous* checkpoint.
                    self._ckpt_pending = sync_pos
            for index in sorted(self._active):
                self.sim.after(
                    delay,
                    lambda h=self.nodes[index], pos=sync_pos, e=self._epoch: (
                        self._global_release(h, pos, e)
                    ),
                    priority=2,
                    label=f"xsync:{sync_pos}",
                )
        return True  # we own the release in all cases

    def _global_release(self, handle: NodeHandle, sync_pos: int, epoch: int) -> None:
        if epoch != self._epoch:
            return  # epoch fence: release scheduled by a dead incarnation
        if self._ckpt_pending is not None and self._ckpt_pending == sync_pos:
            self._ckpt_pos = sync_pos
            self._ckpt_time = self.sim.now
            self._ckpt_pending = None
        handle.app._release(sync_pos)

    def _collective_extra_latency(self) -> int:
        extra = 0
        for node, peer, latency in self._link_degrades:
            if node is not None and node not in self._active:
                continue
            if peer is not None and peer not in self._active:
                continue
            if latency > extra:
                extra = latency
        return extra

    # ------------------------------------------------------ fault injection

    def inject_node_crash(self, node: int) -> str:
        """Fail-stop *node*: its daemons, ranks and pending arrivals all
        vanish.  The survivors only notice at the next collective boundary;
        the global detector fires ``detection_timeout`` µs later."""
        if not 0 <= node < len(self.nodes):
            return f"skipped: no such node {node}"
        handle = self.nodes[node]
        if handle.dead:
            return f"skipped: node {node} already dead"
        if node not in self._active:
            return f"skipped: node {node} is an idle spare"
        if self.failed is not None or self._job_over():
            return "skipped: job already finished"
        handle.dead = True
        self._active.discard(node)
        self._terminal_nodes.discard(node)
        self.node_crashes += 1
        if self._crash_time is None:
            self._crash_time = self.sim.now
        self._dead_pending.add(node)
        daemons_killed = handle.daemons.stop()
        ranks_killed = 0
        for task in handle.app.rank_tasks():
            if task.alive:
                handle.kernel.kill(task)
                ranks_killed += 1
        # The dead node's collective arrivals are stale state; survivors
        # waiting on it now hang until the detector converts the silence
        # into a decision.
        for waiting in self._sync_arrived.values():
            waiting.discard(node)
        self._arm_detection()
        return (
            f"ok: node {node} fail-stop "
            f"({ranks_killed} ranks, {daemons_killed} daemons killed)"
        )

    def inject_node_slowdown(self, node: int, factor: float, duration: int) -> str:
        """Straggler: scale *node*'s effective compute rate for a window."""
        if not 0 <= node < len(self.nodes):
            return f"skipped: no such node {node}"
        handle = self.nodes[node]
        if handle.dead:
            return f"skipped: node {node} is dead"
        kernel = handle.kernel
        kernel.set_speed_scale(factor)
        self.sim.after(
            max(1, duration),
            lambda k=kernel: k.set_speed_scale(1.0),
            priority=3,
            label="fault:node_slowdown:restore",
        )
        return f"ok: node {node} rate x{factor} for {duration}us"

    def inject_link_degrade(
        self,
        node: Optional[int],
        peer: Optional[int],
        latency: int,
        duration: int,
    ) -> str:
        """Inflate the internode latency for a window — globally (``node``
        None) or for one node pair."""
        if node is not None and not 0 <= node < len(self.nodes):
            return f"skipped: no such node {node}"
        if peer is not None and not 0 <= peer < len(self.nodes):
            return f"skipped: no such node {peer}"
        entry = (node, peer, latency)
        self._link_degrades.append(entry)
        self.sim.after(
            max(1, duration),
            lambda e=entry: self._link_restore(e),
            priority=3,
            label="fault:link_degrade:restore",
        )
        scope = "all links" if node is None else (
            f"link {node}<->{peer}" if peer is not None else f"node {node} links"
        )
        return f"ok: +{latency}us on {scope} for {duration}us"

    def _link_restore(self, entry: Tuple[Optional[int], Optional[int], int]) -> None:
        if entry in self._link_degrades:
            self._link_degrades.remove(entry)

    # ------------------------------------------------------ failure detector

    def _tol(self) -> ClusterTolerance:
        return self.tolerance if self.tolerance is not None else ClusterTolerance()

    def _arm_detection(self) -> None:
        if self._detect_armed:
            return
        self._detect_armed = True
        self.sim.after(
            max(1, self._tol().detection_timeout),
            lambda e=self._epoch: self._global_detect(e),
            priority=3,
            label="cluster:detect",
        )

    def _global_detect(self, epoch: int) -> None:
        if epoch != self._epoch or self.failed is not None or self._job_over():
            return
        self._detect_armed = False
        if not self._dead_pending:
            return
        self._decide(
            f"node(s) {sorted(self._dead_pending)} fail-stopped",
            self.sim.now - self._crash_time,
        )

    def _rank_failure(self, node: int, app: MpiApplication) -> bool:
        """``failure_bridge`` target: the per-node runtime's heartbeat
        expired on a crashed rank.  Returns True when the coordinator owns
        the decision (a cluster tolerance is set); False hands it back to
        the node-local abort path."""
        if self.tolerance is None:
            return False
        if node not in self._active:
            return True  # stale detection from a superseded incarnation
        self._decide(
            f"rank failure on node {node}", app.stats.detection_latency_us
        )
        return True

    def _decide(self, reason: str, latency: Optional[int]) -> None:
        """One detection, whichever detector fired: fail the job, or roll
        it back after placing *every* node still pending as dead (a node
        that died inside a rank failure's detection window must not lose
        its shard to the epoch fence)."""
        dead = sorted(self._dead_pending)
        self._dead_pending.clear()
        self._crash_time = None
        self.detections += 1
        if self.detection_latency_us is None:
            self.detection_latency_us = latency
        tol = self._tol()
        if tol.gives_up(self.restarts):
            self._fail(f"{reason} (tolerance: {tol.mode})")
        else:
            self._recover(dead)

    # --------------------------------------------------------------- recovery

    def _recover(self, dead: List[int]) -> None:
        """Coordinated rollback of every active node to the last cluster
        checkpoint, after placing the lost shard(s): spare-node failover
        when a spare remains (and the policy asks for it), shrink-to-fit
        otherwise."""
        now = self.sim.now
        tol = self._tol()
        self.restarts += 1
        base = self._ckpt_time if self._ckpt_time is not None else now
        self.lost_work_us += max(0, now - base)
        self.recovery_time_us += tol.restart_cost
        self._epoch += 1
        self._sync_arrived.clear()
        self._ckpt_pending = None
        self._detect_armed = False

        prev_width = len(self._active) + len(dead)
        for _ in dead:
            if tol.recover == "failover" and self._idle_spares:
                spare = self._idle_spares.pop(0)
                self._active.add(spare)
                self.failovers += 1
            else:
                self.shrinks += 1
        new_width = len(self._active)
        if new_width == 0:
            self._fail(f"node(s) {dead} fail-stopped and no node is left")
            return
        if new_width < prev_width:
            # Shrink-to-fit: the remaining phases are re-decomposed over
            # fewer nodes, so every survivor's shard grows proportionally.
            self._work_scale *= prev_width / new_width

        self._ckpt_time = now
        for node in sorted(self._active):
            handle = self.nodes[node]
            self._terminal_nodes.discard(node)
            handle.app.work_scale = self._work_scale
            if handle.app.ranks:
                handle.app.rollback(self._ckpt_pos, tol.restart_cost)
            else:
                handle.app.adopt_restart(
                    self._ckpt_pos, tol.restart_cost, **self._launch_kwargs
                )

    def _fail(self, reason: str) -> None:
        if self.failed is not None:
            return
        self.failed = reason
        self._epoch += 1
        now = self.sim.now
        for node in sorted(self._active):
            app = self.nodes[node].app
            if not app.stats.aborted and not app.done:
                app.stats.aborted = True
                app._teardown_incarnation()
                app.stats.finished_at = now
        self.sim.stop()

    # ------------------------------------------------------------- lifetime

    def _node_done(self, node: int, app: MpiApplication) -> None:
        if app.stats.aborted:
            # Local abort (no cluster tolerance): fail the whole job now
            # instead of letting the other nodes burn to the horizon.
            self._fail(f"node {node} application aborted")
            return
        if node not in self._active:
            return  # completion of a superseded incarnation
        self._terminal_nodes.add(node)
        if self._active <= self._terminal_nodes:
            self.sim.stop()

    def _job_over(self) -> bool:
        return bool(self._active) and self._active <= self._terminal_nodes

    def _node_positions(self) -> Dict[int, Dict]:
        out: Dict[int, Dict] = {}
        for handle in self.nodes:
            positions = [r.pos for r in handle.app.ranks]
            out[handle.index] = {
                "dead": handle.dead,
                "spare": handle.spare,
                "active": handle.index in self._active,
                "ranks_exited": handle.app.stats.ranks_exited,
                "sync_pos_min": min(positions) if positions else None,
                "sync_pos_max": max(positions) if positions else None,
            }
        return out

    def _resolve_app_time(self) -> int:
        for node in sorted(self._active):
            app_time = self.nodes[node].app.stats.app_time
            if app_time is not None:
                return app_time
        # Every survivor was adopted after the timer window opened (deep
        # multi-crash); fall back to the job's wall clock.
        finished = [
            self.nodes[n].app.stats.finished_at
            for n in sorted(self._active)
            if self.nodes[n].app.stats.finished_at is not None
        ]
        started = [
            self.nodes[n].app.stats.started_at
            for n in sorted(self._active)
            if self.nodes[n].app.stats.started_at is not None
        ]
        if finished and started:
            return max(finished) - min(started)
        raise AssertionError("completed cluster job has no timing at all")

    def run(self) -> ClusterResult:
        """Launch every node's ranks at t=50 ms and run to completion."""

        def launch_all() -> None:
            self._ckpt_time = self.sim.now
            for node in sorted(self._active):
                self.nodes[node].app.launch(**self._launch_kwargs)

        start_at = msecs(50)
        self.sim.at(start_at, launch_all, label="cluster:launch")
        horizon = start_at + 400 * self.program.total_compute + secs(900)
        self.sim.run_until(horizon)
        unfinished = sorted(self._active - self._terminal_nodes)
        if self.failed is not None or unfinished:
            if self.failed is not None:
                message = f"cluster job failed: {self.failed}"
            else:
                done = len(self._active) - len(unfinished)
                message = (
                    f"cluster job incomplete: {done}/{len(self._active)} active "
                    f"nodes finished by t={horizon} (stalled: {unfinished})"
                )
            raise ClusterIncompleteError(
                message,
                node_positions=self._node_positions(),
                queue_summary=self.sim.queue.summary(),
            )
        app_time = self._resolve_app_time()
        self.result = ClusterResult(
            n_nodes=self.n_nodes,
            nprocs_per_node=self.nprocs_per_node,
            app_time=app_time,
            node_migrations=tuple(
                sum(t.nr_migrations for t in h.app.rank_tasks()) for h in self.nodes
            ),
            node_involuntary_switches=tuple(
                sum(t.nr_involuntary_switches for t in h.app.rank_tasks())
                for h in self.nodes
            ),
            n_spares=self.spare_nodes,
            surviving_nodes=len(self._active),
            node_crashes=self.node_crashes,
            detections=self.detections,
            restarts=self.restarts,
            failovers=self.failovers,
            shrinks=self.shrinks,
            detection_latency_us=self.detection_latency_us,
            lost_work_us=self.lost_work_us,
            recovery_time_us=self.recovery_time_us,
            faults_injected=sum(
                h.injector.faults_injected()
                for h in self.nodes
                if h.injector is not None
            ),
        )
        return self.result


def run_cluster_job(
    program: Program,
    n_nodes: int,
    *,
    regime: str = "stock",
    seed: int = 0,
    nprocs_per_node: int = 8,
    noise: Optional[NoiseProfile] = None,
    machine_factories: Optional[List[Callable[[], Machine]]] = None,
    internode_latency: int = 30,
    fault_plans: Optional[Dict[int, FaultPlan]] = None,
    tolerance: Optional[ClusterTolerance] = None,
    spare_nodes: int = 0,
) -> ClusterResult:
    """Convenience wrapper: build, run, return the result."""
    job = ClusterJob(
        program,
        n_nodes=n_nodes,
        nprocs_per_node=nprocs_per_node,
        regime=regime,
        seed=seed,
        machine_factories=machine_factories,
        noise=noise,
        internode_latency=internode_latency,
        fault_plans=fault_plans,
        tolerance=tolerance,
        spare_nodes=spare_nodes,
    )
    return job.run()
