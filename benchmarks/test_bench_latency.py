"""Scheduling-latency comparison (ex-lat) — the time-domain face of §III.

Shape to hold: on the same seed, the stock kernel's worst application-rank
scheduling delay dwarfs HPL's (>= 10x).  Under HPL the HPC class is never
displaced — ranks spin at barriers and own their CPUs — so both their
preemption count and their displacement time are exactly zero, while under
stock Linux daemons and the balancer push ranks off-CPU for milliseconds at
a time.
"""

from benchmarks.conftest import save_artifact
from repro.experiments.runner import run_nas_job
from repro.obs import observe, render_latency_table


def test_latency_stock_vs_hpl(benchmark, bench_seed, artifact_dir):
    def run_both():
        return (
            run_nas_job("ep", "A", "stock", seed=bench_seed, instrument=observe),
            run_nas_job("ep", "A", "hpl", seed=bench_seed, instrument=observe),
        )

    stock, hpl = benchmark.pedantic(run_both, rounds=1, iterations=1)

    sections = []
    for label, job in (("stock Linux", stock), ("HPL", hpl)):
        observer = job.kernel.observer
        sections.append(f"ep.A.8 under {label} (seed {bench_seed}):")
        sections.append(
            render_latency_table(
                observer.latency,
                pids=[t.pid for t in job.app.rank_tasks()],
                names=observer.names(),
            )
        )
    save_artifact(artifact_dir, "latency.txt", "\n".join(sections))

    stock_ranks = [t.pid for t in stock.app.rank_tasks()]
    hpl_ranks = [t.pid for t in hpl.app.rank_tasks()]
    stock_max = stock.kernel.observer.latency.max_delay(stock_ranks)
    hpl_max = hpl.kernel.observer.latency.max_delay(hpl_ranks)
    assert stock_max >= 10 * max(hpl_max, 1), (stock_max, hpl_max)

    hpl_summary = hpl.kernel.observer.latency.summary(hpl_ranks)
    assert hpl_summary.n_preemptions == 0
    assert hpl_summary.max_preempt_wait == 0
