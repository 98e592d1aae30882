"""Differential test: the lean CPU-timer path against its oracle.

The scheduler core arms a CPU timer once per segment-handler run, keeps a
pending timer that is already the queue's newest entry, and the MPI layer
cancels spin-then-block timeouts when their collective is released.  None
of that may change a run.  The timer and collective paths as they were
before are kept verbatim in ``tests/oracles/sched_timer.py``; Hypothesis
demands, over short iterative jobs and class-A NAS runs in every regime,
with and without a fault plan (CPU hotplug plus a rank crash with restart):

* an equal :class:`~repro.apps.mpiexec.JobResult`;
* a byte-identical provenance record (with the per-class counters);
* the same fired ``(time, label)`` sequence, once ``spin-to:`` events are
  dropped on both sides (the oracle fires them; the lean path cancels most).
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nas import nas_program, nas_spec
from repro.apps.spmd import Program
from repro.experiments.runner import KERNEL_VARIANTS, run_job, resolve_kernel_config
from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultTolerance
from repro.obs.provenance import run_record
from repro.topology.presets import power6_js22
from repro.units import msecs

from tests.oracles import sched_timer

REGIMES = sorted(KERNEL_VARIANTS)


def _observe(
    program: Program,
    nprocs: int,
    regime: str,
    seed: int,
    plan: Optional[FaultPlan],
    **job_kwargs,
) -> Tuple[object, str, List[Tuple[int, str]]]:
    """One run: its result, its provenance record as JSON, and the fired
    events other than spin timeouts."""
    fired: List[Tuple[int, str]] = []

    def instrument(kernel) -> None:
        def hook(t: int, label: str) -> None:
            if not label.startswith("spin-to:"):
                fired.append((t, label))

        kernel.sim.add_trace_hook(hook)

    job = run_job(
        program,
        nprocs,
        regime,
        seed=seed,
        instrument=instrument,
        fault_plan=plan,
        fault_tolerance=(
            FaultTolerance(mode="restart", checkpoint_every=2) if plan else None
        ),
        **job_kwargs,
    )
    record = run_record(
        job.result,
        bench=program.name,
        regime=regime,
        run_index=0,
        seed=seed,
        variant=KERNEL_VARIANTS[regime][0],
        config=resolve_kernel_config(KERNEL_VARIANTS[regime][0], None),
        counters=job.kernel.perf.class_snapshot(),
    )
    return job.result, json.dumps(record, sort_keys=True), fired


def _outcome(run: Callable[[], tuple]) -> tuple:
    """*run*'s observations, or the error it raised: both sides must fail
    alike where the model refuses a scenario (e.g. respawning a pinned
    rank while its only CPU is offline)."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc), str(exc))


def _assert_same_as_oracle(run: Callable[[], tuple]) -> None:
    lean = _outcome(run)
    with sched_timer.installed():
        oracle = _outcome(run)
    assert len(lean) == len(oracle)
    for got, want in zip(lean, oracle):
        assert got == want


def _fault_plan(at_ms: int, cpu: int, rank: int) -> FaultPlan:
    """CPU hotplug around a rank crash, as in the faulted golden fixture."""
    return FaultPlan.schedule(
        (
            FaultEvent(at=msecs(at_ms), kind=FaultKind.CPU_OFFLINE, cpu=cpu),
            FaultEvent(at=msecs(at_ms + 10), kind=FaultKind.RANK_CRASH, rank=rank),
            FaultEvent(at=msecs(at_ms + 40), kind=FaultKind.CPU_ONLINE, cpu=cpu),
        ),
        label="oracle-mixed",
    )


faults = st.one_of(
    st.none(),
    st.builds(
        _fault_plan,
        st.integers(min_value=52, max_value=120),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    regime=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=2**16),
    n_iters=st.integers(min_value=1, max_value=12),
    iter_ms=st.integers(min_value=1, max_value=8),
    jitter=st.sampled_from((0.0, 0.05, 0.3)),
    wait_mode=st.sampled_from(("spin", "block")),
    spin_threshold=st.sampled_from((50, 400, 1200, 20_000)),
    nprocs=st.integers(min_value=1, max_value=8),
    plan=faults,
)
def test_iterative_jobs_match_oracle(
    regime, seed, n_iters, iter_ms, jitter, wait_mode, spin_threshold, nprocs, plan
) -> None:
    program = Program.iterative(
        name="oracle-iter",
        n_iters=n_iters,
        iter_work=msecs(iter_ms),
        jitter_sigma=jitter,
        init_ops=2,
        wait_mode=wait_mode,
        spin_threshold=spin_threshold,
    )
    if plan is not None and plan.events[1].rank >= nprocs:
        plan = None
    _assert_same_as_oracle(
        lambda: _observe(program, nprocs, regime, seed, plan, machine=power6_js22())
    )


@settings(max_examples=30, deadline=None)
@given(
    bench=st.sampled_from(("is", "ep", "mg")),
    regime=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=2**16),
    plan=faults,
)
def test_nas_class_a_matches_oracle(bench, regime, seed, plan) -> None:
    machine = power6_js22()
    spec = nas_spec(bench, "A")

    def run():
        return _observe(
            nas_program(spec, machine),
            spec.nprocs,
            regime,
            seed,
            plan,
            machine=machine,
            cold_speed=spec.cold_speed,
            rewarm_scale=spec.rewarm_scale,
        )

    _assert_same_as_oracle(run)
