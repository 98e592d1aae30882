"""The modified ``chrt`` (§V, footnote 6).

The paper activates HPL through "our modified version of chrt, which
provides support for our new Scheduling Class": ``chrt`` moves the calling
process into the requested class, then execs the target command, so the
whole process tree (mpiexec, then every MPI rank) inherits the class across
``fork``.

:func:`chrt_exec` reproduces that as a library call: given a *running* task,
switch it into a policy and hand control to a continuation — the moral
equivalent of ``chrt --hpc mpiexec ...``.  The full launcher chain (with the
``perf`` wrapper and the accounting the paper walks through) lives in
:class:`repro.apps.mpiexec.MpiJob`; this helper exists for custom launch
topologies and the examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.kernel.task import SchedPolicy, Task

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.kernel.kernel import Kernel

__all__ = ["chrt_exec", "POLICY_FLAGS"]

#: chrt-style command-line flags → policies (``--hpc`` is the paper's
#: addition; the rest are stock chrt).
POLICY_FLAGS = {
    "--hpc": SchedPolicy.HPC,
    "--fifo": SchedPolicy.FIFO,
    "--rr": SchedPolicy.RR,
    "--other": SchedPolicy.NORMAL,
    "--batch": SchedPolicy.BATCH,
}


def chrt_exec(
    kernel: "Kernel",
    task: Task,
    policy_flag: str,
    exec_fn: Callable[[Task], None],
    *,
    rt_priority: int = 50,
) -> None:
    """``chrt <flag> <command>``: move *task* into the class named by
    *policy_flag*, then invoke *exec_fn(task)* (the "exec").

    Must be called while *task* runs (from one of its segment callbacks),
    like the real syscall pair.
    """
    if policy_flag not in POLICY_FLAGS:
        raise ValueError(
            f"unknown chrt flag {policy_flag!r}; known: {sorted(POLICY_FLAGS)}"
        )
    policy = POLICY_FLAGS[policy_flag]
    prio = rt_priority if policy in SchedPolicy.RT else 0
    kernel.sched_setscheduler(task, policy, prio)
    exec_fn(task)
