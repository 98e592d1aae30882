"""The sim-runtime memo is a bounded LRU, and eviction is invisible.

The memo's values are pure functions of the key, so the only observable
difference between hit, miss, and evicted-then-recomputed is how many
times the node-level simulator runs — never *what* it returns.  These
tests monkeypatch ``run_cluster_job`` with a deterministic counter so the
call pattern is observable without paying for real simulations.
"""

from __future__ import annotations

import pytest

import repro.batch.runtime as runtime_mod
from repro.batch.runtime import base_runtime_us, clear_runtime_memo
from repro.batch.workload import BatchJob


class _FakeClusterResult:
    def __init__(self, app_time: int) -> None:
        self.app_time = app_time


@pytest.fixture
def fake_sim(monkeypatch):
    """Replace the node-level simulator with a pure, countable stand-in."""
    calls = []

    def fake_run_cluster_job(program, n_nodes, *, regime, seed,
                             nprocs_per_node, internode_latency):
        calls.append((program.name, n_nodes, regime, seed))
        # pure function of the job shape, like the real simulator
        return _FakeClusterResult(1_000 + 97 * seed + 13 * n_nodes)

    import repro.cluster.multinode as multinode
    monkeypatch.setattr(multinode, "run_cluster_job", fake_run_cluster_job)
    clear_runtime_memo()
    yield calls
    clear_runtime_memo()


def _job(seed, n_nodes=1):
    return BatchJob(
        job_id=seed, submit=0, n_nodes=n_nodes, nprocs_per_node=4,
        n_iters=3, estimate=10_000, seed=seed,
    )


def test_memo_hit_skips_resimulation(fake_sim):
    a = base_runtime_us(_job(1), "stock", model="sim")
    b = base_runtime_us(_job(1), "stock", model="sim")
    assert a == b
    assert len(fake_sim) == 1


def test_eviction_never_changes_a_returned_runtime(fake_sim, monkeypatch):
    # Cap the memo at 2 entries and cycle through 5 distinct shapes twice:
    # most entries get evicted and re-simulated, and every second-pass
    # runtime must equal its first-pass value.
    monkeypatch.setattr(runtime_mod, "_PRICE_MEMO_CAP", 2)
    first = [base_runtime_us(_job(s), "stock", model="sim")
             for s in range(5)]
    second = [base_runtime_us(_job(s), "stock", model="sim")
              for s in range(5)]
    assert first == second
    assert len(runtime_mod._PRICE_MEMO) <= 2
    assert len(fake_sim) > 5              # evictions forced re-simulation


def test_lru_keeps_the_hot_key(fake_sim, monkeypatch):
    monkeypatch.setattr(runtime_mod, "_PRICE_MEMO_CAP", 2)
    base_runtime_us(_job(0), "stock", model="sim")   # miss: sim #1
    base_runtime_us(_job(1), "stock", model="sim")   # miss: sim #2 (full)
    base_runtime_us(_job(0), "stock", model="sim")   # hit: refreshes 0
    base_runtime_us(_job(2), "stock", model="sim")   # miss: evicts 1, not 0
    assert len(fake_sim) == 3
    base_runtime_us(_job(0), "stock", model="sim")   # still resident
    assert len(fake_sim) == 3
    base_runtime_us(_job(1), "stock", model="sim")   # was evicted: sim #4
    assert len(fake_sim) == 4


def test_memo_bounded_under_churn(fake_sim, monkeypatch):
    monkeypatch.setattr(runtime_mod, "_PRICE_MEMO_CAP", 8)
    for s in range(50):
        base_runtime_us(_job(s), "stock", model="sim")
    assert len(runtime_mod._PRICE_MEMO) <= 8


def test_distinct_shapes_get_distinct_entries(fake_sim):
    r1 = base_runtime_us(_job(1, n_nodes=1), "stock", model="sim")
    r2 = base_runtime_us(_job(1, n_nodes=2), "stock", model="sim")
    assert len(fake_sim) == 2
    assert r1 != r2


# -- analytic prices share the memo ----------------------------------------


def test_memoized_analytic_price_equals_a_fresh_one(monkeypatch):
    clear_runtime_memo()
    job = _job(11)
    fresh = base_runtime_us(job, "hpl", model="analytic")
    assert ("analytic", job.seed, job.ideal_us, "hpl") in runtime_mod._PRICE_MEMO

    def no_draw(seed):
        raise AssertionError("a memoized price drew again")

    monkeypatch.setattr(runtime_mod, "RngStreams", no_draw)
    assert base_runtime_us(job, "hpl", model="analytic") == fresh
    monkeypatch.undo()
    clear_runtime_memo()
    assert runtime_mod._PRICE_MEMO == {}
    assert base_runtime_us(job, "hpl", model="analytic") == fresh
    clear_runtime_memo()


def test_analytic_key_is_what_the_draw_reads():
    # job_id, submit and estimate do not enter the price; regime does.
    clear_runtime_memo()
    a = BatchJob(job_id=1, submit=0, n_nodes=1, nprocs_per_node=4,
                 n_iters=3, estimate=10_000, seed=5)
    b = BatchJob(job_id=2, submit=900, n_nodes=2, nprocs_per_node=4,
                 n_iters=3, estimate=20_000, seed=5)
    assert (base_runtime_us(a, "stock", model="analytic")
            == base_runtime_us(b, "stock", model="analytic"))
    assert len(runtime_mod._PRICE_MEMO) == 1
    base_runtime_us(a, "rt", model="analytic")
    assert len(runtime_mod._PRICE_MEMO) == 2
    clear_runtime_memo()


def test_both_models_share_one_cap(fake_sim, monkeypatch):
    monkeypatch.setattr(runtime_mod, "_PRICE_MEMO_CAP", 4)
    for s in range(6):
        base_runtime_us(_job(s), "stock", model="sim")
        base_runtime_us(_job(s), "stock", model="analytic")
    assert len(runtime_mod._PRICE_MEMO) == 4


def test_unknown_regime_is_not_memoized():
    clear_runtime_memo()
    with pytest.raises(ValueError):
        base_runtime_us(_job(3), "nope", model="analytic")
    assert runtime_mod._PRICE_MEMO == {}
