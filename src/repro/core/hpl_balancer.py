"""HPL's topology-aware fork-time placement.

"HPL thus performs load balancing only when a fork() is executed. ... we
consider the architecture topology (how many hardware threads per core, how
many cores per chip, cache sharing, etc.) ... our load balancer tries to use
all available cores by assigning one process per core when the number of HPC
tasks is less than or equal to the number of cores.  When the number of HPC
processes is higher than the number of cores, the scheduler uses the second
hardware thread of each core." (§IV)

"In our test system, HPL first balances the load between the two chips, then
between the cores in a chip, and finally between the hardware threads within
a core." (§V)

The placement below implements exactly that hierarchy, using only hardware
facts "common to most platforms" (thread/core/chip counts), so it works
unchanged on every :class:`~repro.topology.machine.Machine` preset.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.kernel.task import Task
from repro.topology.machine import Machine

__all__ = ["HplForkPlacer"]


class HplForkPlacer:
    """Chooses the CPU for a newly forked HPC task.

    In the default ``"performance"`` mode the placer ranks every admissible
    CPU by the key

    ``(tasks on its chip, tasks on its core, tasks on the thread, smt index,
    cpu id)``

    and takes the minimum.  Filling in this order spreads first across chips,
    then across cores within the least-loaded chip, and only once every core
    holds a task does it start doubling up on SMT siblings — reproducing the
    one-task-per-core-first rule with no special cases.

    ``"power"`` mode implements the §IV/§VII future-work direction ("other
    reasons to perform load balancing include power consumption"): it
    *consolidates* — preferring the busiest chip that still has capacity, so
    unused chips stay fully idle and their uncore can be power-gated — while
    still spreading across cores within the chosen chip.  The performance
    cost (earlier SMT doubling) versus the power saving is quantified in
    ``benchmarks/test_bench_power_placement.py``.

    ``hpc_count(cpu_id)`` is supplied by the kernel and returns the number of
    HPC-class tasks currently assigned to a CPU (queued or running).
    """

    MODES = ("performance", "power")

    def __init__(
        self,
        machine: Machine,
        hpc_count: Callable[[int], int],
        *,
        mode: str = "performance",
        cpu_filter: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.machine = machine
        self._hpc_count = hpc_count
        self.mode = mode
        #: Admissibility predicate beyond affinity (the kernel passes its
        #: CPU-online test, so hotplugged-out CPUs are never chosen).
        self.cpu_filter = cpu_filter

    # ------------------------------------------------------------ placement

    def place(self, task: Task, prefer: Optional[int] = None) -> int:
        """Return the CPU id for *task*, honouring its affinity mask.

        *prefer* (typically the forking parent's CPU) wins ties — the child
        then simply stays put, which both avoids a pointless migration and
        resolves the launcher corner case: when mpiexec (itself HPC-class)
        makes every CPU look equally loaded at the last fork, the child
        shares mpiexec's CPU and inherits it outright the moment mpiexec
        enters waitpid.
        """
        candidates = [
            cpu
            for cpu in self.machine.cpus
            if task.allows_cpu(cpu.cpu_id)
            and (self.cpu_filter is None or self.cpu_filter(cpu.cpu_id))
        ]
        if not candidates:
            raise ValueError(f"{task!r} has an empty effective affinity mask")

        counts = {cpu.cpu_id: self._hpc_count(cpu.cpu_id) for cpu in self.machine.cpus}

        def chip_load(cpu) -> int:
            return sum(counts[t.cpu_id] for t in cpu.chip.threads)

        def core_load(cpu) -> int:
            return sum(counts[t.cpu_id] for t in cpu.core.threads)

        consolidate = self.mode == "power"

        def chip_key(cpu) -> int:
            load = chip_load(cpu)
            # Power mode: prefer the most-loaded chip that still has a free
            # hardware thread (negated load sorts busiest first).
            if consolidate:
                capacity = len(cpu.chip.threads)
                if load < capacity:
                    return -load
                return capacity  # full chips rank last
            return load

        best = min(
            candidates,
            key=lambda cpu: (
                chip_key(cpu),
                core_load(cpu),
                counts[cpu.cpu_id],
                0 if cpu.cpu_id == prefer else 1,
                cpu.smt_index,
                cpu.cpu_id,
            ),
        )
        return best.cpu_id

    def plan(self, n_tasks: int) -> List[int]:
        """Pure helper: the CPU sequence *n_tasks* successive forks would
        receive on an otherwise HPC-empty machine.  Used by tests and docs to
        show the placement order (e.g. on the js22, performance mode:
        ``[0, 4, 2, 6, 1, 5, 3, 7]`` — chips, then cores, then threads)."""
        counts = {cpu.cpu_id: 0 for cpu in self.machine.cpus}
        consolidate = self.mode == "power"

        def chip_load(cpu) -> int:
            return sum(counts[t.cpu_id] for t in cpu.chip.threads)

        def chip_key(cpu) -> int:
            load = chip_load(cpu)
            if consolidate:
                capacity = len(cpu.chip.threads)
                return -load if load < capacity else capacity
            return load

        def core_load(cpu) -> int:
            return sum(counts[t.cpu_id] for t in cpu.core.threads)

        out: List[int] = []
        for _ in range(n_tasks):
            best = min(
                self.machine.cpus,
                key=lambda cpu: (
                    chip_key(cpu),
                    core_load(cpu),
                    counts[cpu.cpu_id],
                    cpu.smt_index,
                    cpu.cpu_id,
                ),
            )
            out.append(best.cpu_id)
            counts[best.cpu_id] += 1
        return out
