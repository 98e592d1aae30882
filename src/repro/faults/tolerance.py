"""Rank-failure tolerance policy for :class:`repro.apps.mpi.MpiApplication`.

Kept dependency-free so the apps layer can import it without pulling the
rest of the fault machinery in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

__all__ = ["ClusterTolerance", "FaultTolerance"]


class _Tolerance:
    """The checks and the decision both tolerance policies share."""

    mode: str
    detection_timeout: int
    checkpoint_every: int
    restart_cost: int
    max_restarts: int

    MODES = ("abort", "restart")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        if self.detection_timeout < 1:
            raise ValueError("detection_timeout must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every cannot be negative")
        if self.restart_cost < 0:
            raise ValueError("restart_cost cannot be negative")
        if self.max_restarts < 0:
            raise ValueError("max_restarts cannot be negative")

    def as_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def gives_up(self, restarts: int) -> bool:
        """Whether a detected failure ends the job: always in abort mode,
        and in restart mode once *restarts* rollbacks spent the budget."""
        return self.mode == "abort" or restarts >= self.max_restarts


@dataclass(frozen=True)
class FaultTolerance(_Tolerance):
    """How an MPI job reacts to a crashed rank.

    Detection models the launcher's heartbeat/SIGCHLD path: the runtime
    declares the job failed ``detection_timeout`` µs after the crash
    (survivors spend that window parked at the collective the dead rank
    will never reach).
    """

    #: "abort" — mpirun semantics, the whole job is torn down;
    #: "restart" — BLCR-style coordinated checkpoint/restart.
    mode: str = "abort"
    #: µs from the crash to the runtime declaring the job failed.
    detection_timeout: int = 5_000
    #: Take a coordinated checkpoint every K collective releases
    #: (restart mode; 0 = only the initial state is ever saved).
    checkpoint_every: int = 0
    #: µs of state-reload work each rank performs on restart.
    restart_cost: int = 2_000
    #: Give up (abort) after this many restarts.
    max_restarts: int = 8


@dataclass(frozen=True)
class ClusterTolerance(_Tolerance):
    """How a multi-node job reacts to node and rank loss.

    The cluster coordinator (``repro.cluster.multinode.ClusterJob``) is the
    global failure detector: survivors notice a dead node by heartbeat
    timeout at a collective boundary (``detection_timeout`` µs after the
    failure), then either abort the whole job or roll every surviving node
    back to the last cluster-wide coordinated checkpoint.  Recovery runs in
    one of two degraded modes:

    * ``"failover"`` — a pre-provisioned idle spare adopts the dead node's
      ranks (falls back to shrink when no spare is left);
    * ``"shrink"`` — the remaining phases are re-decomposed across the
      survivors, inflating each survivor's per-phase work by
      ``old_nodes / new_nodes``.
    """

    #: "abort" — tear the whole job down on any node/rank loss;
    #: "restart" — coordinated rollback to the last cluster checkpoint.
    mode: str = "abort"
    #: Degraded mode applied on restart: "failover" or "shrink".
    recover: str = "failover"
    #: µs from a node failure to the survivors declaring it dead.
    detection_timeout: int = 10_000
    #: Coordinated checkpoint every K *global* collective releases
    #: (0 = only the initial state is ever saved).
    checkpoint_every: int = 0
    #: µs of state-reload work each rank performs on rollback.
    restart_cost: int = 5_000
    #: Give up (abort) after this many cluster-wide restarts.
    max_restarts: int = 4

    RECOVERS = ("failover", "shrink")

    def __post_init__(self) -> None:
        if self.recover not in self.RECOVERS:
            raise ValueError(f"recover must be one of {self.RECOVERS}")
        super().__post_init__()
