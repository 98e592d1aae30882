"""The on-disk sim-pricing store: shared, self-healing, invisible in results.

Sim-model job prices are pure functions of the job shape, so persisting
them under the campaign cache's ``pricing/`` directory may only change how
often the node-level simulator runs — never a result or a provenance byte.
Disk entries are keyed to the model source (``model_epoch``), so a store
filled by different model code is never consulted.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro.cluster.multinode as multinode
from repro.batch import (
    WorkloadConfig,
    base_runtime_us,
    clear_runtime_memo,
    run_batch_campaign,
)
from repro.batch.workload import BatchJob
from repro.parallel.cache import PRICING_DIR
from repro.parallel.supervisor import _drop_pool

SMALL = WorkloadConfig(n_jobs=6, interarrival_us=3_000, max_nodes=2)


class _FakeClusterResult:
    def __init__(self, app_time: int) -> None:
        self.app_time = app_time


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_runtime_memo()
    yield
    clear_runtime_memo()


def _fake_run_cluster_job(program, n_nodes, *, regime, seed,
                          nprocs_per_node, internode_latency):
    # a pure function of the job shape, like the real simulator
    return _FakeClusterResult(1_000 + 97 * seed + 13 * n_nodes)


@pytest.fixture
def fake_sim(monkeypatch):
    """Replace the node-level simulator with a pure, countable stand-in."""
    calls = []

    def counted(program, n_nodes, **kwargs):
        calls.append(kwargs["seed"])
        return _fake_run_cluster_job(program, n_nodes, **kwargs)

    monkeypatch.setattr(multinode, "run_cluster_job", counted)
    return calls


def _forbid_simulation(monkeypatch):
    """Make any node-level simulation fail.  The campaign pool is shut
    down, so the next pooled campaign forks workers that inherit the ban
    and start with an empty price memo."""
    def boom(*args, **kwargs):
        raise AssertionError("simulated a shape the pricing store holds")

    monkeypatch.setattr(multinode, "run_cluster_job", boom)
    _drop_pool()


def _job(seed, n_nodes=1):
    return BatchJob(
        job_id=seed, submit=0, n_nodes=n_nodes, nprocs_per_node=4,
        n_iters=3, estimate=10_000, seed=seed,
    )


def _campaign(policy, n_jobs, **kwargs):
    return run_batch_campaign(
        policy, 2, "hpl", 2, base_seed=3, workload=SMALL, n_jobs=n_jobs,
        **kwargs,
    )


# ------------------------------------------------------ (a) cross-process


def test_pooled_campaigns_share_prices_across_workers(tmp_path, monkeypatch):
    reference = _campaign("easy", 1)
    clear_runtime_memo()
    cache = str(tmp_path / "cache")
    _campaign("fcfs", 2, use_cache=True, cache_dir=cache)
    assert any((tmp_path / "cache" / PRICING_DIR).iterdir())

    clear_runtime_memo()
    _forbid_simulation(monkeypatch)
    warm = _campaign("easy", 2, use_cache=True, cache_dir=cache)
    assert warm.results == reference.results
    assert warm.cache_hits == 0  # prices are not campaign results


def test_no_cache_writes_no_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _campaign("fcfs", 1, use_cache=False)
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / ".repro-cache").exists()


def test_store_hit_skips_simulation(tmp_path, fake_sim):
    store = str(tmp_path / PRICING_DIR)
    first = base_runtime_us(_job(5), "stock", pricing_store=store)
    clear_runtime_memo()
    assert base_runtime_us(_job(5), "stock", pricing_store=store) == first
    assert fake_sim == [5]


def test_analytic_model_ignores_the_store(tmp_path):
    store = tmp_path / PRICING_DIR
    base_runtime_us(_job(5), "stock", model="analytic", pricing_store=str(store))
    assert not store.exists()


def _price_shapes(store):
    """Pool worker: price a fixed set of shapes into *store*."""
    multinode.run_cluster_job = _fake_run_cluster_job
    clear_runtime_memo()
    return [base_runtime_us(_job(s), "stock", pricing_store=store)
            for s in range(12)]


def test_concurrent_writers_leave_only_whole_entries(tmp_path):
    # More writers than cores race to fill the same entries; atomic
    # replacement must leave exactly one whole, correct integer per shape.
    store = tmp_path / PRICING_DIR
    expected = [_fake_run_cluster_job(None, 1, regime="stock", seed=s,
                                      nprocs_per_node=4,
                                      internode_latency=30).app_time
                for s in range(12)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(4, mp_context=ctx) as pool:
        futures = [pool.submit(_price_shapes, str(store)) for _ in range(8)]
        results = [f.result(timeout=120) for f in futures]
    assert results == [expected] * 8
    entries = sorted(store.iterdir())
    assert len(entries) == 12
    assert sorted(int(p.read_bytes()) for p in entries) == sorted(expected)


# ----------------------------------------------------- (b) damaged entries


@pytest.mark.parametrize(
    "damage", [b"", b"garbage\n", b"12.5\n", b"0\n", b"-3\n", b"\xff\xfe"])
def test_damaged_entry_is_a_miss_and_rewritten(tmp_path, fake_sim, damage):
    store = tmp_path / PRICING_DIR
    expected = base_runtime_us(_job(7), "stock", pricing_store=str(store))
    [entry] = store.iterdir()
    entry.write_bytes(damage)

    clear_runtime_memo()
    assert base_runtime_us(_job(7), "stock", pricing_store=str(store)) == expected
    assert fake_sim == [7, 7]
    assert entry.read_bytes() == f"{expected}\n".encode("ascii")


# --------------------------------------------------- (c) byte identity


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_provenance_identical_cold_warm_and_uncached(tmp_path, monkeypatch,
                                                     n_jobs):
    def provenance(tag, **kwargs):
        # Pooled workers keep their price memo across campaigns; drop
        # the pool too so every run starts with no price in memory.
        clear_runtime_memo()
        _drop_pool()
        path = tmp_path / f"{tag}.jsonl"
        _campaign("share", n_jobs, provenance_path=str(path), **kwargs)
        return path.read_bytes()

    uncached = provenance("uncached")
    cold = provenance("cold", use_cache=True, cache_dir=str(tmp_path / "cold"))
    # A fresh result cache over the cold run's prices: every repetition
    # executes, and every price comes from disk.
    shutil.copytree(tmp_path / "cold" / PRICING_DIR,
                    tmp_path / "warm" / PRICING_DIR)
    _forbid_simulation(monkeypatch)
    warm = provenance("warm", use_cache=True, cache_dir=str(tmp_path / "warm"))
    assert cold == uncached
    assert warm == uncached


# ----------------------------------------------------- model-source epoch

_LOOKUP = """
import sys
import repro
import repro.cluster.multinode as multinode
from repro.batch.runtime import base_runtime_us
from repro.batch.workload import BatchJob
from repro.parallel.jobspec import model_epoch

calls = []

class Result:
    app_time = 4242

def fake(*args, **kwargs):
    calls.append(1)
    return Result()

multinode.run_cluster_job = fake
job = BatchJob(job_id=0, submit=0, n_nodes=1, nprocs_per_node=2, n_iters=2,
               estimate=10_000, seed=1)
base_runtime_us(job, "hpl", pricing_store=sys.argv[1])
print(model_epoch(), len(calls), repro.__file__)
"""


def test_model_source_change_moves_the_epoch_and_misses(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    copies = {}
    for name in ("a", "b"):
        copies[name] = tmp_path / name
        shutil.copytree(src, copies[name] / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
    constant = copies["b"] / "repro" / "kernel" / "sched_core.py"
    text = constant.read_text()
    assert "_WORK_EPSILON = 2\n" in text
    constant.write_text(text.replace("_WORK_EPSILON = 2\n", "_WORK_EPSILON = 3\n"))
    store = str(tmp_path / "cache" / PRICING_DIR)

    def lookup(name):
        env = dict(os.environ, PYTHONPATH=str(copies[name]))
        out = subprocess.run(
            [sys.executable, "-c", _LOOKUP, store], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert Path(out[2]).is_relative_to(copies[name])
        return out[0], int(out[1])

    epoch_a, sims = lookup("a")
    assert sims == 1                      # cold store
    assert lookup("a") == (epoch_a, 0)    # same source: a disk hit
    epoch_b, sims = lookup("b")
    assert epoch_b != epoch_a
    assert sims == 1                      # other model source: a miss


# ------------------------------------------------ (e) uncached scratch store

#: The two-level experiment's eight sim-priced campaigns without the cache,
#: every node-level simulation logged with its pid.  argv: log file,
#: provenance directory, n_jobs.  Prints the scratch store's path.
_UNCACHED_TWO_LEVEL = """
import os, sys
import repro.cluster.multinode as multinode
from repro.batch import WorkloadConfig, run_batch_campaign, runtime
from repro.experiments.twolevel import TWO_LEVEL_POLICIES

log, prov, n_jobs = sys.argv[1], sys.argv[2], int(sys.argv[3])
real = multinode.run_cluster_job

def counted(*args, **kwargs):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return real(*args, **kwargs)

multinode.run_cluster_job = counted
workload = WorkloadConfig(n_jobs=12, interarrival_us=3_000, max_nodes=3)
for policy in TWO_LEVEL_POLICIES:
    for regime in ("stock", "hpl"):
        run_batch_campaign(
            policy, 4, regime, 3, workload=workload, n_jobs=n_jobs,
            label=f"two-level-{policy}",
            provenance_path=os.path.join(prov, f"{policy}-{regime}.jsonl"),
        )
print(runtime._SCRATCH_STORE[1] if runtime._SCRATCH_STORE else "")
"""


def _uncached_two_level(tmp_path, n_jobs):
    """Per-pid simulation counts, provenance bytes and the scratch store
    path of one fresh-process run of :data:`_UNCACHED_TWO_LEVEL`."""
    root = Path(__file__).resolve().parents[1]
    work, tmp, prov = (tmp_path / f"{part}{n_jobs}"
                       for part in ("work", "tmp", "prov"))
    for path in (work, tmp, prov):
        path.mkdir()
    log = tmp_path / f"sims{n_jobs}.log"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env.update(PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
    store = subprocess.run(
        [sys.executable, "-c", _UNCACHED_TWO_LEVEL, str(log), str(prov),
         str(n_jobs)],
        cwd=work, env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()
    pids = log.read_text().split()
    counts = sorted(pids.count(pid) for pid in set(pids))
    provenance = {p.name: p.read_bytes() for p in sorted(prov.glob("*.jsonl"))}
    assert not (work / ".repro-cache").exists()
    assert not any(tmp.iterdir())  # the scratch store left with its process
    return counts, provenance, store


def test_pooled_uncached_campaigns_price_each_shape_once(tmp_path):
    serial_counts, serial_prov, serial_store = _uncached_two_level(tmp_path, 1)
    pooled_counts, pooled_prov, pooled_store = _uncached_two_level(tmp_path, 2)
    assert serial_counts == [72] and serial_store == ""
    # Between them the workers simulate each shape once, as serially.
    assert sum(pooled_counts) == 72
    assert pooled_store.startswith(str(tmp_path / "tmp2"))
    assert pooled_prov == serial_prov and len(serial_prov) == 8


def test_scratch_store_is_shared_until_cleared(tmp_path, monkeypatch):
    from repro.batch import runtime

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    store = runtime.scratch_pricing_store()
    assert runtime.scratch_pricing_store() == store
    assert Path(store).is_dir() and Path(store).parent == tmp_path
    clear_runtime_memo()
    assert not Path(store).exists()
    assert runtime.scratch_pricing_store() != store
