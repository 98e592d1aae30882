"""Differential and property tests of the node layer's per-event path.

The scheduler core looks its SMT co-run rate up with a per-core busy count
kept in step at every ``rq.curr`` change, and the MPI layer draws its
per-phase jitter from blocks of standard normals.  Neither may change a
run.  The walk over the siblings' run queues and the scalar
``RngStreams.lognormal`` draw are kept verbatim in
``tests/oracles/node_hot_path.py``; Hypothesis demands, over iterative
jobs on SMT and non-SMT machines, class-A NAS runs and cluster jobs, with
and without faults (CPU hotplug, a rank crash with restart, a straggler):

* an equal result;
* a byte-identical provenance record (node runs);
* the same fired ``(time, label)`` sequence.

The block draws themselves are pinned against the scalar sequence, and a
blocked stream must refuse every other kind of draw.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nas import nas_program, nas_spec
from repro.apps.spmd import Program
from repro.cluster.multinode import run_cluster_job
from repro.experiments.runner import KERNEL_VARIANTS, resolve_kernel_config, run_job
from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultTolerance
from repro.obs.provenance import run_record
from repro.sim.rng import BLOCK_SIZE, RngStreams
from repro.topology.presets import generic_smp, power6_js22, xeon_dual_socket
from repro.units import msecs

from tests.oracles import node_hot_path

REGIMES = sorted(KERNEL_VARIANTS)

MACHINES = {
    "js22": power6_js22,
    "xeon": xeon_dual_socket,
    "xeon-nosmt": lambda: xeon_dual_socket(smt=False),
    "smp4": lambda: generic_smp(4),
}


def _observe(
    program: Program,
    nprocs: int,
    regime: str,
    seed: int,
    plan: Optional[FaultPlan],
    **job_kwargs,
) -> Tuple[object, str, List[Tuple[int, str]]]:
    """One node run: its result, its provenance record as JSON, and every
    fired event."""
    fired: List[Tuple[int, str]] = []

    def instrument(kernel) -> None:
        kernel.sim.add_trace_hook(lambda t, label: fired.append((t, label)))

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


def _outcome(run: Callable[[], object]) -> object:
    """*run*'s observations, or the error it raised: both sides must fail
    alike where the model refuses a scenario."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc), str(exc))


def _assert_same_as_oracle(run: Callable[[], object]) -> None:
    lean = _outcome(run)
    with node_hot_path.installed():
        oracle = _outcome(run)
    assert lean == oracle


def _fault_plan(at_ms: int, cpu: int, rank: int) -> FaultPlan:
    """CPU hotplug around a rank crash: busy counts change under eviction,
    parking and respawn."""
    return FaultPlan.schedule(
        (
            FaultEvent(at=msecs(at_ms), kind=FaultKind.CPU_OFFLINE, cpu=cpu),
            FaultEvent(at=msecs(at_ms + 10), kind=FaultKind.RANK_CRASH, rank=rank),
            FaultEvent(at=msecs(at_ms + 40), kind=FaultKind.CPU_ONLINE, cpu=cpu),
        ),
        label="hot-path-mixed",
    )


faults = st.one_of(
    st.none(),
    st.builds(
        _fault_plan,
        st.integers(min_value=52, max_value=120),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
)


@settings(max_examples=50, deadline=None)
@given(
    machine=st.sampled_from(sorted(MACHINES)),
    regime=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=2**16),
    n_iters=st.integers(min_value=1, max_value=10),
    iter_ms=st.integers(min_value=1, max_value=6),
    jitter=st.sampled_from((0.0, 0.05, 0.3)),
    nprocs=st.integers(min_value=1, max_value=8),
    plan=faults,
)
def test_iterative_jobs_match_oracle(
    machine, regime, seed, n_iters, iter_ms, jitter, nprocs, plan
) -> None:
    program = Program.iterative(
        name="hot-path-iter",
        n_iters=n_iters,
        iter_work=msecs(iter_ms),
        jitter_sigma=jitter,
        run_jitter_sigma=jitter / 10,
        init_ops=2,
    )
    if plan is not None and plan.events[1].rank >= nprocs:
        plan = None
    _assert_same_as_oracle(
        lambda: _observe(
            program, nprocs, regime, seed, plan, machine=MACHINES[machine]()
        )
    )


@settings(max_examples=20, deadline=None)
@given(
    bench=st.sampled_from(("is", "mg", "cg")),
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


@settings(max_examples=10, deadline=None)
@given(
    regime=st.sampled_from(("stock", "hpl")),
    seed=st.integers(min_value=0, max_value=2**16),
    factor=st.sampled_from((0.5, 0.8)),
    slow_node=st.integers(min_value=0, max_value=1),
)
def test_cluster_straggler_matches_oracle(regime, seed, factor, slow_node) -> None:
    """A node slowdown rescales the rate tables mid-run; two nodes each run
    their own blocked jitter stream."""
    program = Program.iterative(
        name="hot-path-cluster", n_iters=4, iter_work=msecs(8),
        jitter_sigma=0.05, init_ops=2, finalize_ops=1,
    )
    plans = {
        slow_node: FaultPlan.schedule(
            [FaultEvent(at=msecs(60), kind=FaultKind.NODE_SLOWDOWN,
                        factor=factor, duration=msecs(20))],
            label="straggle",
        )
    }

    def run():
        result = run_cluster_job(
            program, 2, regime=regime, seed=seed, fault_plans=plans
        )
        return dataclasses.asdict(result)

    _assert_same_as_oracle(run)


# ---------------------------------------------------------------- rng blocks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    lead=st.integers(min_value=0, max_value=2 * BLOCK_SIZE),
    sigmas=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=64,
    ),
)
def test_block_draws_equal_scalar_sequence(seed, lead, sigmas) -> None:
    """*lead* draws first put the arbitrary *sigmas* anywhere in a block,
    so they cross a block boundary whenever they straddle one."""
    scalar = RngStreams(seed)
    block = RngStreams(seed).normal_block("app.jitter")
    for sigma in [0.004] * lead + sigmas:
        assert block.lognormal(sigma) == scalar.lognormal("app.jitter", 0.0, sigma)


_OTHER_DRAWS = {
    "stream": lambda r, n: r.stream(n),
    "lognormal": lambda r, n: r.lognormal(n, 0.0, 0.1),
    "exponential": lambda r, n: r.exponential(n, 1.0),
    "uniform": lambda r, n: r.uniform(n, 0.0, 1.0),
    "integers": lambda r, n: r.integers(n, 0, 10),
    "random": lambda r, n: r.random(n),
}


@settings(max_examples=30, deadline=None)
@given(
    draw=st.sampled_from(sorted(_OTHER_DRAWS)),
    before=st.integers(min_value=0, max_value=2 * BLOCK_SIZE),
    touched=st.booleans(),
)
def test_blocked_stream_refuses_other_draws(draw, before, touched) -> None:
    rng = RngStreams(11)
    if touched:
        rng.stream("s").random()  # drawn from before it was blocked
    block = rng.normal_block("s")
    assert rng.normal_block("s") is block  # one block per stream name
    for _ in range(before):
        block.lognormal(0.2)
    with pytest.raises(ValueError, match="drawn in blocks"):
        _OTHER_DRAWS[draw](rng, "s")
    rng.random("other")  # other streams are unaffected


def test_block_continues_a_stream_drawn_before() -> None:
    """Opening a block mid-stream continues the generator where the scalar
    draws left it."""
    scalar = RngStreams(5)
    blocked = RngStreams(5)
    for _ in range(3):
        assert blocked.lognormal("s", 0.0, 0.3) == scalar.lognormal("s", 0.0, 0.3)
    block = blocked.normal_block("s")
    for _ in range(BLOCK_SIZE + 2):
        assert block.lognormal(0.3) == scalar.lognormal("s", 0.0, 0.3)
