"""The campaign fabric: ordering, determinism, error surfacing, one driver.

The unit tests drive :func:`supervise_campaign` with a trivial worker so
they stay fast.  The ``run_specs`` test runs the three campaign kinds (node,
cluster, batch) through their public drivers and checks that they share one
cache/resume/sidecar contract.  The integration test at the bottom is the
real contract: a NAS campaign run serially and with a process pool produces
byte-identical provenance and identical results.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.apps.spmd import Program
from repro.batch.campaign import run_batch_campaign
from repro.batch.workload import WorkloadConfig
from repro.experiments.runner import (
    _derive_seed,
    build_campaign_specs,
    run_campaign,
    run_cluster_campaign,
    run_nas_campaign,
)
from repro.parallel import (
    CampaignRunError,
    NoJournalError,
    ResultCache,
    RetryPolicy,
    SupervisorConfig,
    resolve_jobs,
    supervise_campaign,
)
from repro.parallel.jobspec import model_epoch
from repro.topology.presets import generic_smp
from repro.units import msecs


def _tiny_program() -> Program:
    return Program.iterative(
        name="eng", n_iters=2, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )


def _specs(n_runs: int, base_seed: int = 0):
    return build_campaign_specs(
        _tiny_program, 4, "stock", n_runs,
        base_seed=base_seed, machine_factory=lambda: generic_smp(4),
    )


#: Fail fast: no retry, so failures surface without backoff sleeps.
_NO_RETRY = SupervisorConfig(retry=RetryPolicy(deterministic_retries=0))


# Workers must be module-level: they cross the process boundary by name.

def _double_seed(spec):
    return spec.seed * 2, None


def _straggle_early_runs(spec):
    # Early runs sleep longest, so workers finish in *reverse* index order.
    time.sleep(0.02 * max(0, 4 - spec.run_index))
    return spec.run_index, None


def _fail_run_two(spec):
    if spec.run_index == 2:
        raise ValueError("boom")
    return spec.seed, None


def test_serial_and_parallel_records_identical():
    specs = _specs(6, base_seed=11)
    serial = supervise_campaign(specs, _double_seed, n_jobs=1).records
    parallel = supervise_campaign(specs, _double_seed, n_jobs=3).records
    key = lambda r: (r.run_index, r.seed, r.digest, r.result, r.cache_hit)
    assert [key(r) for r in serial] == [key(r) for r in parallel]


def test_parallel_emits_in_run_index_order_despite_stragglers():
    specs = _specs(5)
    streamed = []
    result = supervise_campaign(
        specs, _straggle_early_runs, n_jobs=3,
        on_record=lambda r: streamed.append(r.run_index),
    )
    assert [r.run_index for r in result.records] == [0, 1, 2, 3, 4]
    assert streamed == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("n_jobs", [1, 3])
def test_progress_is_monotonic_and_complete(n_jobs):
    specs = _specs(5)
    calls = []
    supervise_campaign(
        specs, _double_seed, n_jobs=n_jobs,
        progress=lambda done, total: calls.append((done, total)),
    )
    assert calls == [(i, 5) for i in range(1, 6)]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_failure_names_run_seed_and_digest(n_jobs):
    specs = _specs(4, base_seed=9)
    with pytest.raises(CampaignRunError) as excinfo:
        supervise_campaign(specs, _fail_run_two, n_jobs=n_jobs, config=_NO_RETRY)
    err = excinfo.value
    assert err.run_index == 2
    assert err.seed == _derive_seed(9, 2)
    assert err.digest == specs[2].digest()
    assert "n_jobs=1" in str(err)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(8) == 8
    assert resolve_jobs(None) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(0)


def test_cache_hits_preserve_ordering(tmp_path):
    specs = _specs(6)
    cache = ResultCache(str(tmp_path / "cache"))
    supervise_campaign(specs, _double_seed, n_jobs=1, cache=cache)
    # Evict half the entries so hits and misses interleave.
    for spec in specs[::2]:
        cache.path_for(spec.digest()).unlink()
    streamed = []
    records = supervise_campaign(
        specs, _double_seed, n_jobs=2, cache=cache,
        on_record=lambda r: streamed.append(r.run_index),
    ).records
    assert streamed == [0, 1, 2, 3, 4, 5]
    assert [r.cache_hit for r in records] == [False, True] * 3
    assert [r.result for r in records] == [s.seed * 2 for s in specs]


# ---------------------------------------------------------------------------
# run_specs: every campaign kind shares one cache/resume/sidecar contract.
# ---------------------------------------------------------------------------


#: kind -> (module holding the executor, its name, driver call, bench label)
_KINDS = {
    "node": (
        "repro.experiments.runner", "_execute_spec",
        lambda **kw: run_campaign(
            _tiny_program, 4, "stock", 2,
            machine_factory=lambda: generic_smp(4), **kw),
        "eng",
    ),
    "cluster": (
        "repro.experiments.runner", "_execute_cluster_spec",
        lambda **kw: run_cluster_campaign(
            _tiny_program, 2, "stock", 2, nprocs_per_node=2, **kw),
        "eng",
    ),
    "batch": (
        "repro.batch.campaign", "_execute_batch_spec",
        lambda **kw: run_batch_campaign(
            "fcfs", 2, "stock", 2, runtime_model="analytic",
            workload=WorkloadConfig(n_jobs=3, interarrival_us=3_000,
                                    max_nodes=2), **kw),
        "batch-fcfs",
    ),
}

_META_KEYS = {
    "schema", "record", "bench", "regime", "n_runs", "base_seed", "jobs",
    "cache_hits", "cache_misses", "retries", "timeouts", "pool_shrinks",
    "holes", "resumed", "replayed", "started_at", "finished_at",
    "duration_s", "model_epoch",
}


def _always_fails(spec):
    raise ValueError(f"run {spec.run_index} fails")


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_run_specs_contract_is_shared_by_every_kind(kind, tmp_path, monkeypatch):
    module, executor, launch, bench = _KINDS[kind]
    prov = str(tmp_path / "prov.jsonl")

    with pytest.raises(NoJournalError):
        launch(use_cache=False, resume=True)

    fresh = launch(
        provenance_path=prov, use_cache=True, cache_dir=str(tmp_path / "c"),
        resume=True, resume_missing_ok=True,
    )
    assert fresh.n_runs == 2 and fresh.cache_hits == 0 and fresh.replayed == 0
    meta = json.loads(open(prov + ".meta.json").read())
    assert set(meta) == _META_KEYS
    assert meta["model_epoch"] == model_epoch()
    assert meta["resumed"] is False
    assert (meta["bench"], meta["cache_misses"]) == (bench, 2)

    monkeypatch.setattr(f"{module}.{executor}", _always_fails)
    holed = launch(
        provenance_path=prov,
        supervise=SupervisorConfig(
            retry=RetryPolicy(deterministic_retries=0), allow_partial=True),
    )
    assert (holed.results, holed.holes, holed.label) == ([], [0, 1], bench)
    meta = json.loads(open(prov + ".meta.json").read())
    assert set(meta) == _META_KEYS
    assert meta["bench"] == bench
    assert [h["run_index"] for h in meta["holes"]] == [0, 1]
    assert open(prov).read() == ""


def test_unknown_regime_is_named_before_kernel_config():
    with pytest.raises(ValueError, match="unknown regime 'bogus'; choose from"):
        run_campaign(_tiny_program, 2, "bogus", 1)


# ---------------------------------------------------------------------------
# The real contract: a NAS campaign is byte-identical serial vs parallel.
# ---------------------------------------------------------------------------


def test_nas_campaign_parallel_matches_serial_byte_identical(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    serial = run_nas_campaign(
        "is", "A", "stock", 4, base_seed=3,
        provenance_path=str(serial_path), n_jobs=1,
    )
    parallel = run_nas_campaign(
        "is", "A", "stock", 4, base_seed=3,
        provenance_path=str(parallel_path), n_jobs=2,
    )
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    assert serial.app_times_s() == parallel.app_times_s()
    assert list(serial.migrations()) == list(parallel.migrations())
    assert list(serial.context_switches()) == list(parallel.context_switches())
    assert serial.jobs == 1 and parallel.jobs == 2
