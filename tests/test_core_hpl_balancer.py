"""Tests for HPL's topology-aware fork placement."""

import pytest

from repro.apps.mpi import MpiApplication
from repro.apps.spmd import Program
from repro.core.hpl_balancer import HplForkPlacer
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.task import SchedPolicy, Task
from repro.topology.presets import (
    bluegene_node,
    generic_smp,
    power6_js22,
    xeon_dual_socket,
)
from repro.units import msecs, secs


def placer_with_counts(machine, counts=None):
    counts = dict(counts or {})

    def hpc_count(cpu_id):
        return counts.get(cpu_id, 0)

    return HplForkPlacer(machine, hpc_count), counts


def hpc_task(pid=1, affinity=None):
    return Task(pid, f"h{pid}", SchedPolicy.HPC, affinity=affinity)


def test_js22_plan_spreads_chips_then_cores_then_threads():
    placer, _ = placer_with_counts(power6_js22())
    plan = placer.plan(8)
    # First four: one per core (SMT index 0), alternating chips.
    first_cores = plan[:4]
    assert {power6_js22().cpu(c).core.core_id for c in first_cores} == {0, 1, 2, 3}
    assert all(power6_js22().cpu(c).smt_index == 0 for c in first_cores)
    # Chips alternate: 0, 1, 0, 1 pattern by chip id.
    chips = [power6_js22().cpu(c).chip.chip_id for c in first_cores]
    assert chips[0] != chips[1]
    # Last four: the second hardware threads ("the scheduler uses the second
    # hardware thread of each core", SS IV).
    assert all(power6_js22().cpu(c).smt_index == 1 for c in plan[4:])
    # All eight CPUs used exactly once.
    assert sorted(plan) == list(range(8))


def test_one_task_per_core_rule_when_underloaded():
    machine = power6_js22()
    placer, _ = placer_with_counts(machine)
    plan = placer.plan(4)
    cores = {machine.cpu(c).core.core_id for c in plan}
    assert len(cores) == 4  # all four cores, no SMT doubling


def test_place_accounts_existing_load():
    machine = power6_js22()
    placer, _ = placer_with_counts(machine, {0: 1, 4: 1})
    # Chips balanced (1 each); least-loaded cores win.
    cpu = placer.place(hpc_task())
    core = machine.cpu(cpu).core.core_id
    assert core in (1, 3)  # cores 0 and 2 hold the existing tasks


def test_prefer_breaks_ties():
    machine = power6_js22()
    placer, _ = placer_with_counts(machine, {c: 1 for c in range(8)})
    assert placer.place(hpc_task(), prefer=5) == 5
    # Without prefer, deterministic lowest (smt 0, cpu id).
    assert placer.place(hpc_task()) == 0


def test_prefer_does_not_override_load():
    machine = power6_js22()
    placer, _ = placer_with_counts(machine, {5: 3})
    assert placer.place(hpc_task(), prefer=5) != 5


def test_affinity_respected():
    machine = power6_js22()
    placer, _ = placer_with_counts(machine)
    cpu = placer.place(hpc_task(affinity=frozenset({6, 7})))
    assert cpu in (6, 7)


def test_empty_affinity_raises():
    machine = power6_js22()
    placer, _ = placer_with_counts(machine)
    # Affinity to a CPU that does not exist is caught at placement.
    task = Task(1, "h", SchedPolicy.HPC, affinity=frozenset({99}))
    with pytest.raises(ValueError):
        placer.place(task)


def test_plan_on_flat_smp_round_robins():
    machine = generic_smp(4)
    placer, _ = placer_with_counts(machine)
    assert sorted(placer.plan(4)) == [0, 1, 2, 3]
    plan8 = placer.plan(8)
    # Two per CPU after wrap-around.
    assert sorted(plan8) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_plan_on_xeon_spreads_sockets_first():
    machine = xeon_dual_socket(cores_per_socket=2, smt=True)  # 2x2x2 = 8
    placer, _ = placer_with_counts(machine)
    plan = placer.plan(4)
    chips = [machine.cpu(c).chip.chip_id for c in plan]
    assert chips.count(0) == 2 and chips.count(1) == 2


def test_plan_on_bluegene_node():
    machine = bluegene_node()
    placer, _ = placer_with_counts(machine)
    assert sorted(placer.plan(4)) == [0, 1, 2, 3]


def test_power_mode_consolidates_onto_one_chip():
    machine = power6_js22()
    placer = HplForkPlacer(machine, lambda cpu: 0, mode="power")
    plan = placer.plan(4)
    chips = {machine.cpu(c).chip.chip_id for c in plan}
    assert len(chips) == 1  # all four ranks on one chip (SMT-doubled)
    # Within the chip it still spreads across cores first.
    cores = [machine.cpu(c).core.core_id for c in plan[:2]]
    assert len(set(cores)) == 2


def test_power_mode_spills_when_chip_full():
    machine = power6_js22()
    placer = HplForkPlacer(machine, lambda cpu: 0, mode="power")
    plan = placer.plan(6)
    chips = [machine.cpu(c).chip.chip_id for c in plan]
    assert len(set(chips[:4])) == 1  # first chip filled completely
    assert len(set(chips[4:])) == 1 and chips[4] != chips[0]


def _run_placement_mode(mode):
    """4 ranks on the 8-thread js22 under HPL with the given fork placement;
    returns the app time in seconds and the set of chips the ranks ran on."""
    kernel = Kernel(power6_js22(), KernelConfig.hpl(hpl_placement_mode=mode),
                    seed=7)
    program = Program.iterative(
        name="power", n_iters=10, iter_work=msecs(25),
        init_ops=2, startup_work=msecs(6), finalize_ops=0,
    )
    app = MpiApplication(kernel, program, 4,
                         on_complete=lambda a: kernel.sim.stop())
    kernel.sim.at(msecs(10), lambda: app.launch(policy=SchedPolicy.HPC))
    kernel.sim.run_until(secs(600))
    assert app.done and app.stats.app_time is not None
    chips = {kernel.machine.cpu(t.last_cpu).chip.chip_id
             for t in app.rank_tasks()}
    return app.stats.app_time / 1e6, chips


def test_power_mode_end_to_end_trades_speed_for_one_chip():
    perf_t, perf_chips = _run_placement_mode("performance")
    power_t, power_chips = _run_placement_mode("power")
    assert len(perf_chips) == 2   # spread: one rank per core
    assert len(power_chips) == 1  # consolidated, SMT-doubled
    assert perf_t < power_t * 0.75


def test_placer_mode_validation():
    with pytest.raises(ValueError):
        HplForkPlacer(power6_js22(), lambda cpu: 0, mode="turbo")
