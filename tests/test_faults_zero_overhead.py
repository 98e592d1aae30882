"""Fault machinery must cost nothing when unused.

Same discipline as the obs layer (tests/test_obs_overhead.py): a run with
an *empty* fault plan — or a fault-tolerance config that never fires — is
bit-identical to a run with no fault machinery at all.
"""

from repro.apps.spmd import Program
from repro.experiments.runner import run_job, run_nas, run_nas_job, run_program
from repro.faults import FaultPlan
from repro.kernel.kernel import Kernel, KernelConfig
from repro.obs import observe
from repro.topology.presets import power6_js22


def _result_tuple(res):
    return (
        res.wall_time,
        res.app_time,
        res.cpu_migrations,
        res.context_switches,
        res.rank_migrations,
        res.rank_involuntary_switches,
    )


def test_empty_plan_is_bit_identical_nas():
    for regime in ("stock", "hpl"):
        base = run_nas("is", "A", regime, seed=3)
        faulted = run_nas_job("is", "A", regime, seed=3,
                              fault_plan=FaultPlan.none())
        assert _result_tuple(faulted.result) == _result_tuple(base)
        # An empty plan is never armed: no injector, nothing applied.
        assert faulted.kernel.fault_injector is None


def test_bare_observed_and_watched_runs_are_one_result():
    """The same seed gives the same JobResult bare, observed, and under an
    empty plan with the starvation watchdog; ``run_nas`` is its result."""
    for regime in ("stock", "hpl"):
        bare = run_nas_job("is", "A", regime, seed=3)
        observed = run_nas_job("is", "A", regime, seed=3, instrument=observe)
        watched = run_nas_job("is", "A", regime, seed=3,
                              fault_plan=FaultPlan.none(), with_watchdog=True)
        assert observed.result == bare.result
        assert watched.result == bare.result
        assert run_nas("is", "A", regime, seed=3) == bare.result
        assert bare.kernel.observer is None and bare.kernel.watchdog is None
        assert observed.kernel.observer is not None
        assert watched.kernel.watchdog is not None
        assert watched.kernel.fault_injector is None


def test_empty_plan_is_bit_identical_program():
    program = Program.iterative(
        name="mini", n_iters=5, iter_work=30_000, sync_latency=50
    )
    base = run_program(program, 4, "stock", seed=9)
    faulted = run_job(program, 4, "stock", seed=9, fault_plan=FaultPlan.none())
    assert _result_tuple(faulted.result) == _result_tuple(base)


def test_none_plan_equals_missing_plan():
    program = Program.iterative(
        name="mini", n_iters=5, iter_work=30_000, sync_latency=50
    )
    a = run_job(program, 4, "hpl", seed=2, fault_plan=None)
    b = run_job(program, 4, "hpl", seed=2, fault_plan=FaultPlan.none())
    assert _result_tuple(a.result) == _result_tuple(b.result)
    assert a.kernel.fault_injector is None and b.kernel.fault_injector is None


def test_kernel_without_faults_has_no_hotplug_state_cost():
    """The wake() fast path is gated on a plain int — no fault objects are
    created or consulted when nothing was ever offlined."""
    k = Kernel(power6_js22(), KernelConfig.stock(), seed=0)
    assert k._offline_count == 0
    assert all(k.core.cpu_online)
    assert k._park_waiters == []
