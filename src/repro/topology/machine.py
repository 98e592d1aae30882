"""Machine topology tree: ``Machine → Chip → Core → HWThread``.

A :class:`HWThread` is what Linux calls a "CPU" — the unit the scheduler
assigns tasks to.  CPU ids are dense integers assigned in topology order
(thread 0 of core 0 of chip 0 is CPU 0, its SMT sibling is CPU 1, ...), which
matches how the paper enumerates the eight hardware threads of the js22.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.topology.cache import CacheHierarchy, SharingScope

__all__ = ["HWThread", "Core", "Chip", "Machine"]


class HWThread:
    """One hardware thread (a schedulable CPU)."""

    __slots__ = ("cpu_id", "core", "smt_index")

    def __init__(self, cpu_id: int, core: "Core", smt_index: int) -> None:
        self.cpu_id = cpu_id
        self.core = core
        self.smt_index = smt_index

    @property
    def chip(self) -> "Chip":
        return self.core.chip

    @property
    def machine(self) -> "Machine":
        return self.core.chip.machine

    def siblings(self) -> List["HWThread"]:
        """The other hardware threads on the same core."""
        return [t for t in self.core.threads if t is not self]

    def __repr__(self) -> str:
        return (
            f"<CPU {self.cpu_id} (chip {self.chip.chip_id}, "
            f"core {self.core.core_id}, smt {self.smt_index})>"
        )


class Core:
    """A physical core holding one or more SMT hardware threads."""

    __slots__ = ("core_id", "chip", "threads", "local_index")

    def __init__(self, core_id: int, chip: "Chip", local_index: int) -> None:
        self.core_id = core_id
        self.chip = chip
        self.local_index = local_index
        self.threads: List[HWThread] = []

    def __repr__(self) -> str:
        return f"<Core {self.core_id} on chip {self.chip.chip_id}, {len(self.threads)} threads>"


class Chip:
    """A processor chip (socket) holding one or more cores."""

    __slots__ = ("chip_id", "machine", "cores")

    def __init__(self, chip_id: int, machine: "Machine") -> None:
        self.chip_id = chip_id
        self.machine = machine
        self.cores: List[Core] = []

    @property
    def threads(self) -> List[HWThread]:
        return [t for core in self.cores for t in core.threads]

    def __repr__(self) -> str:
        return f"<Chip {self.chip_id}, {len(self.cores)} cores>"


class Machine:
    """A full node.

    Parameters
    ----------
    chips, cores_per_chip, threads_per_core:
        Topology shape.
    cache:
        The per-structure cache hierarchy (shared by all cores; heterogeneous
        machines are out of scope, as in the paper).
    smt_throughput:
        Per-thread relative throughput when *n* sibling threads of one core
        are busy simultaneously; index 0 ↔ one busy thread.  The default
        ``(1.0, 0.62)`` reflects typical in-order POWER6 SMT2 scaling
        (two busy threads give ~1.24× core throughput).
    name:
        Label for reports.
    """

    def __init__(
        self,
        chips: int,
        cores_per_chip: int,
        threads_per_core: int,
        cache: CacheHierarchy,
        *,
        smt_throughput: Sequence[float] = (1.0, 0.62),
        name: str = "machine",
    ) -> None:
        if chips < 1 or cores_per_chip < 1 or threads_per_core < 1:
            raise ValueError("topology dimensions must be >= 1")
        if len(smt_throughput) < threads_per_core:
            raise ValueError(
                "smt_throughput must provide a factor for every possible number "
                f"of busy siblings (need {threads_per_core}, got {len(smt_throughput)})"
            )
        if any(f <= 0 or f > 1.0 for f in smt_throughput):
            raise ValueError("smt_throughput factors must be in (0, 1]")
        if any(
            smt_throughput[i] < smt_throughput[i + 1]
            for i in range(len(smt_throughput) - 1)
        ):
            raise ValueError("smt_throughput must be non-increasing")

        self.name = name
        self.cache = cache
        self.smt_throughput = tuple(float(f) for f in smt_throughput)
        self.chips: List[Chip] = []
        self.cpus: List[HWThread] = []

        cpu_id = 0
        core_id = 0
        for chip_idx in range(chips):
            chip = Chip(chip_idx, self)
            for core_idx in range(cores_per_chip):
                core = Core(core_id, chip, core_idx)
                core_id += 1
                for smt_idx in range(threads_per_core):
                    thread = HWThread(cpu_id, core, smt_idx)
                    cpu_id += 1
                    core.threads.append(thread)
                    self.cpus.append(thread)
                chip.cores.append(core)
            self.chips.append(chip)

    # ---------------------------------------------------------------- shape

    @property
    def n_cpus(self) -> int:
        return len(self.cpus)

    @property
    def n_cores(self) -> int:
        return sum(len(chip.cores) for chip in self.chips)

    @property
    def n_chips(self) -> int:
        return len(self.chips)

    @property
    def threads_per_core(self) -> int:
        return len(self.chips[0].cores[0].threads)

    @property
    def cores_per_chip(self) -> int:
        return len(self.chips[0].cores)

    def cores(self) -> Iterator[Core]:
        for chip in self.chips:
            yield from chip.cores

    def cpu(self, cpu_id: int) -> HWThread:
        if not 0 <= cpu_id < len(self.cpus):
            raise IndexError(f"no CPU {cpu_id} on {self.name} ({len(self.cpus)} CPUs)")
        return self.cpus[cpu_id]

    # ------------------------------------------------------------ relations

    def common_scope(self, cpu_a: int, cpu_b: int) -> str:
        """The narrowest topological scope containing both CPUs.

        Used by the warmth model: migrating within a scope at which some
        cache is shared preserves part of the footprint (paper footnote 2).
        """
        a, b = self.cpu(cpu_a), self.cpu(cpu_b)
        if a is b:
            return SharingScope.THREAD
        if a.core is b.core:
            return SharingScope.CORE
        if a.chip is b.chip:
            return SharingScope.CHIP
        return SharingScope.MACHINE

    def migration_retained_warmth(self, src_cpu: int, dst_cpu: int) -> float:
        """Fraction of cache footprint retained when a task moves
        ``src_cpu → dst_cpu``, per the cache hierarchy's sharing scopes."""
        scope = self.common_scope(src_cpu, dst_cpu)
        if scope == SharingScope.THREAD:
            return 1.0
        return self.cache.shared_fraction(scope)

    def describe(self) -> str:
        """One-line human summary, e.g. ``power6-js22: 2 chips x 2 cores x 2 threads = 8 CPUs``."""
        return (
            f"{self.name}: {self.n_chips} chips x {self.cores_per_chip} cores x "
            f"{self.threads_per_core} threads = {self.n_cpus} CPUs"
        )

    def __repr__(self) -> str:
        return f"<Machine {self.describe()}>"
