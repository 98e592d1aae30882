"""Picklable per-run job specs for the parallel campaign engine.

A campaign is N independent repetitions; each repetition is fully described
by a :class:`RunSpec` — the program (pure phase data), the machine model,
the noise profile, the kernel configuration, the fault plan and the derived
seed.  Everything in a spec is plain data, so it crosses a process boundary
by pickling and, just as importantly, it can be *named*: a spec's
:meth:`~SpecIdentity.digest` is a stable content hash over the spec plus
:func:`model_epoch`, the hash of the model source, which is exactly the
identity the result cache keys on (two runs with equal digests would
simulate the same microseconds under the same code).  A spec's program
enters its fingerprint as :func:`program_digest`, a flat hash of the phase
rows, so naming a spec costs far less than simulating it.

The parent process builds specs by calling the campaign's factories in run
order — factories themselves (often closures) never cross the boundary, so
``run_campaign`` keeps accepting arbitrary callables.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.apps.spmd import Phase, Program
from repro.topology.machine import Machine

if TYPE_CHECKING:
    # Annotation only: naming a spec must not load the node layer (a batch
    # spec's digest never touches a kernel), and parallel stays
    # import-independent of batch.
    from repro.batch.workload import WorkloadConfig
    from repro.faults import ClusterTolerance, FaultPlan, FaultTolerance
    from repro.kernel.daemons import NoiseProfile
    from repro.kernel.kernel import KernelConfig

__all__ = [
    "BatchRunSpec",
    "ClusterRunSpec",
    "RunSpec",
    "MODEL_FILES",
    "MODEL_PACKAGES",
    "SpecIdentity",
    "machine_fingerprint",
    "model_epoch",
    "program_digest",
    "stable_digest",
]

#: The subpackages of ``repro`` whose source determines simulated results.
MODEL_PACKAGES = (
    "sim", "kernel", "memsim", "topology", "core", "apps", "cluster",
    "batch", "faults",
)
#: Single modules outside :data:`MODEL_PACKAGES` that decide results too:
#: the spec executors, kernel variants and job start offset of the runner,
#: and the time-unit conversions every model constant is written in.
MODEL_FILES = ("experiments/runner.py", "units.py")


#: Types :func:`_jsonable` returns unchanged (exact types: a subclass such
#: as an enum member takes the general path).
_PLAIN_SCALARS = frozenset({str, int, float, bool})


def _jsonable(value):
    """Recursively normalize *value* into deterministic JSON-ready data.

    Sets are sorted (their iteration order is not a contract), tuples become
    lists, dataclasses become dicts — so the digest never depends on hash
    randomization or insertion order.  Exact plain scalars, the bulk of
    any payload, return first: they are never dataclasses or containers.
    """
    if type(value) in _PLAIN_SCALARS or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def stable_digest(payload, length: int = 32) -> str:
    """sha256 hex digest (truncated to *length*) of normalized *payload*.

    A flat ``dict`` of ``str`` keys and exact plain scalars or ``None``
    (a batch job's digest payload) skips :func:`_jsonable`, which would
    return an equal dict that ``sort_keys`` orders the same way."""
    if not (type(payload) is dict
            and all(type(k) is str for k in payload)
            and all(type(v) in _PLAIN_SCALARS or v is None
                    for v in payload.values())):
        payload = _jsonable(payload)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


@functools.lru_cache(maxsize=None)
def model_epoch() -> str:
    """sha256 over the model source: the sorted relative paths and bytes of
    every ``.py`` file in :data:`MODEL_PACKAGES` and of :data:`MODEL_FILES`.

    Everything that outlives the code that filled it keys on this — result
    cache entries and journals through the spec digests, and the batch
    pricing store directly — so editing any model file (one constant is
    enough) moves every key.  Computed once per process (~2.5 ms); forked
    workers inherit the parent's value."""
    root = Path(__file__).resolve().parent.parent
    paths = [path for pkg in MODEL_PACKAGES for path in (root / pkg).rglob("*.py")]
    paths.extend(root / rel for rel in MODEL_FILES)
    files = sorted((path.relative_to(root).as_posix(), path) for path in paths)
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


_PHASE_FIELDS = tuple(f.name for f in dataclasses.fields(Phase))
_PROGRAM_FIELDS = tuple(
    f.name for f in dataclasses.fields(Program) if f.name != "phases"
)
_phase_row = operator.attrgetter(*_PHASE_FIELDS)
_program_row = operator.attrgetter(*_PROGRAM_FIELDS)


def program_digest(program: Program) -> str:
    """Stable 32-hex content hash of *program*.

    One JSON array of rows: the field names, the program's own non-phase
    field values, then one row of field values per phase in
    ``dataclasses.fields(Phase)`` order.  JSON keeps ``1`` and ``1.0`` (and
    ``True``) apart, so programs that are equal under ``==`` but serialize
    differently digest differently, and equal programs from separate
    factory calls digest equal.  Flat rows skip ``dataclasses.asdict``'s
    deep copy, which makes this cheap enough to run per spec (lu.B: under
    5 ms, less than building the program)."""
    rows = [[_PROGRAM_FIELDS, _PHASE_FIELDS], _program_row(program)]
    rows.extend(map(_phase_row, program.phases))
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:32]


def machine_fingerprint(machine: Machine) -> Dict[str, object]:
    """The content identity of a :class:`Machine`: shape, SMT throughput and
    cache hierarchy.  Two machines with equal fingerprints behave
    identically in the simulator."""
    chips = len(machine.chips)
    cores_per_chip = len(machine.chips[0].cores) if machine.chips else 0
    threads_per_core = (
        len(machine.chips[0].cores[0].threads)
        if machine.chips and machine.chips[0].cores
        else 0
    )
    return {
        "name": machine.name,
        "chips": chips,
        "cores_per_chip": cores_per_chip,
        "threads_per_core": threads_per_core,
        "smt_throughput": list(machine.smt_throughput),
        "cache": _jsonable(machine.cache),
    }


class SpecIdentity:
    """The identity every spec kind shares: a kind supplies
    ``fingerprint()``, the simulation-relevant content as plain data, and
    inherits :meth:`digest`."""

    def fingerprint(self) -> Dict[str, object]:  # pragma: no cover - abstract
        raise NotImplementedError

    def digest(self) -> str:
        """Stable 32-hex content key (the cache key) for this spec."""
        return stable_digest(self.fingerprint())


@dataclass(frozen=True)
class RunSpec(SpecIdentity):
    """One campaign repetition, as data.

    Workers receive nothing else: the simulation a spec describes depends
    only on the spec's content, which is what makes the parallel fan-out
    deterministic and the cache sound.
    """

    run_index: int
    seed: int
    program: Program
    nprocs: int
    regime: str
    machine: Machine
    noise: Optional[NoiseProfile] = None
    kernel_config: Optional[KernelConfig] = None
    cold_speed: Optional[float] = None
    rewarm_scale: float = 1.0
    fault_plan: Optional[FaultPlan] = None
    fault_tolerance: Optional[FaultTolerance] = None

    def fingerprint(self) -> Dict[str, object]:
        """Everything simulation-relevant, as deterministic plain data.

        ``run_index`` is deliberately absent: the index only orders results,
        the *seed* is what differentiates repetitions.  :func:`model_epoch`
        is included so results simulated by other model code are never
        reused, and the program enters as its :func:`program_digest`.
        """
        return {
            "epoch": model_epoch(),
            "seed": self.seed,
            "program": program_digest(self.program),
            "nprocs": self.nprocs,
            "regime": self.regime,
            "machine": machine_fingerprint(self.machine),
            "noise": _jsonable(self.noise),
            "kernel_config": _jsonable(self.kernel_config),
            "cold_speed": self.cold_speed,
            "rewarm_scale": self.rewarm_scale,
            "fault_plan": self.fault_plan.as_dict() if self.fault_plan else None,
            "fault_tolerance": _jsonable(self.fault_tolerance),
        }


@dataclass(frozen=True)
class ClusterRunSpec(SpecIdentity):
    """One multi-node campaign repetition, as data.

    The cluster analogue of :class:`RunSpec`: everything
    :func:`~repro.cluster.multinode.run_cluster_job` needs, flattened to
    picklable content.  Machines cross the boundary as a tuple (one per
    node — participants first, then spares), fault plans as a sorted tuple
    of ``(node, plan)`` pairs, so equal-content specs always produce equal
    digests regardless of dict insertion order.
    """

    run_index: int
    seed: int
    program: Program
    n_nodes: int
    nprocs_per_node: int
    regime: str
    #: One machine per node (n_nodes or n_nodes + spare_nodes entries);
    #: None = every node runs the default preset.
    machines: Optional[Tuple[Machine, ...]] = None
    noise: Optional[NoiseProfile] = None
    internode_latency: int = 30
    fault_plans: Optional[Tuple[Tuple[int, FaultPlan], ...]] = None
    tolerance: Optional[ClusterTolerance] = None
    spare_nodes: int = 0

    def fingerprint(self) -> Dict[str, object]:
        """Everything simulation-relevant, as deterministic plain data
        (same contract as :meth:`RunSpec.fingerprint`)."""
        return {
            "epoch": model_epoch(),
            "kind": "cluster",
            "seed": self.seed,
            "program": program_digest(self.program),
            "n_nodes": self.n_nodes,
            "nprocs_per_node": self.nprocs_per_node,
            "regime": self.regime,
            "machines": (
                [machine_fingerprint(m) for m in self.machines]
                if self.machines is not None
                else None
            ),
            "noise": _jsonable(self.noise),
            "internode_latency": self.internode_latency,
            "fault_plans": (
                {str(node): plan.as_dict() for node, plan in self.fault_plans}
                if self.fault_plans is not None
                else None
            ),
            "tolerance": (
                self.tolerance.as_dict() if self.tolerance is not None else None
            ),
            "spare_nodes": self.spare_nodes,
        }


@dataclass(frozen=True)
class BatchRunSpec(SpecIdentity):
    """One batch-scheduling campaign repetition, as data.

    The two-level analogue of :class:`RunSpec`: a repetition is a whole
    *schedule* — one generated job trace replayed against a node pool under
    one allocation policy — rather than a single simulated execution.  The
    workload config (not the trace) is the payload: the trace is a pure
    function of ``(workload, seed)``, so shipping the config keeps specs
    small and the digest contract intact.  Policies cross the boundary by
    registry name plus a sorted params tuple, never as objects.
    """

    run_index: int
    seed: int
    #: Allocation policy registry key (see :data:`repro.batch.BATCH_POLICIES`).
    policy: str
    #: Simulated cluster size the trace is packed onto.
    pool_nodes: int
    #: Node-level scheduling regime each job runs under (stock/hpl/rt).
    regime: str
    #: Trace shape; the trace itself is ``generate_trace(workload, seed)``.
    workload: "WorkloadConfig"
    #: How job runtimes are priced: "sim" (real node-level simulations) or
    #: "analytic" (calibrated closed form).
    runtime_model: str = "sim"
    #: Sorted ``(key, value)`` policy tuning knobs (None = defaults).
    policy_params: Optional[Tuple[Tuple[str, object], ...]] = None
    #: ``BATCH``-universe fault timeline replayed against the node pool
    #: (None or empty = the historical fault-free dispatcher).
    fault_plan: Optional[FaultPlan] = None
    #: Fault-kill requeues each job may spend before failing terminally.
    job_retries: int = 2
    #: Checkpoint-resume surcharge (µs) every restart owes.
    restart_cost_us: int = 2_000
    #: Rigid placement rule: "lowest" (historical) or "wary"
    #: (deprioritize recently-failed nodes).
    placement: str = "lowest"

    def fingerprint(self) -> Dict[str, object]:
        """Everything schedule-relevant, as deterministic plain data
        (same contract as :meth:`RunSpec.fingerprint`).

        The fault fields fold in only when the plan is *armed* (non-empty)
        and ``placement`` only when it departs from the default, so an
        unarmed spec's fingerprint has the same shape as one written before
        those fields existed.  Cached schedules stay valid only as long as
        :func:`model_epoch` does: any model source change misses them.
        """
        fp = {
            "epoch": model_epoch(),
            "kind": "batch",
            "seed": self.seed,
            "policy": self.policy,
            "policy_params": (
                _jsonable(dict(self.policy_params))
                if self.policy_params is not None
                else None
            ),
            "pool_nodes": self.pool_nodes,
            "regime": self.regime,
            "workload": _jsonable(self.workload),
            "runtime_model": self.runtime_model,
        }
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            fp["fault_plan"] = self.fault_plan.as_dict()
            fp["job_retries"] = self.job_retries
            fp["restart_cost_us"] = self.restart_cost_us
        if self.placement != "lowest":
            fp["placement"] = self.placement
        return fp
