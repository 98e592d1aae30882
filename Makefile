# Convenience targets for the HPL reproduction.

PY ?= python

.PHONY: install test test-faults test-cluster test-batch test-batch-faults test-fabric test-sanitize lint bench perf perf-diff perf-gate reach report figures examples clean

install:
	pip install -e . --no-build-isolation || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# The fault-injection subsystem's own suite (hotplug, rank failures,
# watchdogs, fault-schedule property tests), plus the CLI tests and the
# golden transcripts of the faults/batch/resilience commands.
test-faults:
	$(PY) -m pytest tests/test_faults_plan.py tests/test_faults_hotplug.py \
		tests/test_faults_rank_failures.py tests/test_faults_watchdog.py \
		tests/test_faults_zero_overhead.py tests/test_sim_stall.py \
		tests/test_properties_faults.py tests/test_golden_cli.py \
		tests/test_cli.py tests/test_recovery_oracle.py

# Cluster fault domains: multi-node detection/recovery, degraded modes,
# the cluster campaign layer and its golden provenance fixture, and the
# differential test of the shared node/cluster recovery path.
test-cluster:
	$(PY) -m pytest tests/test_cluster.py tests/test_cluster_faults.py \
		tests/test_golden_provenance.py tests/test_recovery_oracle.py

# Batch/cluster dispatcher: workload generation, the four allocation
# policies (FCFS, EASY backfilling, priority, fractional sharing), the
# batch campaign layer, its CLI, the EASY-guarantee property tests, the
# differential test against the pre-index dispatcher kept in
# tests/oracles/, and the index audit; then the fault-aware dispatcher
# tests once more with that audit running at every event.
test-batch:
	$(PY) -m pytest tests/test_batch_workload.py tests/test_batch_policies.py \
		tests/test_batch_campaign.py tests/test_properties_batch.py \
		tests/test_cli_batch.py tests/test_batch_oracle.py \
		tests/test_batch_sanitizer.py tests/test_batch_pricing_store.py \
		tests/test_batch_rational.py tests/test_batch_exact_clocks.py
	REPRO_SANITIZE=1 $(PY) -m pytest tests/test_batch_faults.py

# Fault-aware batch scheduling: node failure/drain/requeue schedules, the
# conservation-law property tests, the sim-runtime LRU memo, and the
# crash->requeue->backfill golden fixture.
test-batch-faults:
	$(PY) -m pytest tests/test_batch_faults.py \
		tests/test_properties_batch_faults.py \
		tests/test_batch_runtime_memo.py tests/test_golden_provenance.py

# Campaign fabric: the supervisor's one dispatch loop (serial and pooled),
# worker death and hard-deadline kills, journaled resume, the engine and
# result cache (quarantine included), CLI supervision flags and telemetry.
test-fabric:
	$(PY) -m pytest tests/test_supervisor.py tests/test_supervisor_pool.py \
		tests/test_resume.py tests/test_parallel_engine.py \
		tests/test_parallel_cache.py tests/test_cache_quarantine.py \
		tests/test_cli_supervision.py tests/test_obs_telemetry.py

# Full suite with the scheduler invariant sanitizer attached to every
# kernel (the simulator's lockdep/KASAN analog; see repro.kernel.invariants).
test-sanitize:
	REPRO_SANITIZE=1 $(PY) -m pytest tests/

# Static checks. ruff is optional (not vendored); fall back to a syntax
# check via compileall so the target is useful on a bare toolchain.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to python -m compileall"; \
		$(PY) -m compileall -q src tests benchmarks examples && echo "syntax OK"; \
	fi

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Paper-fidelity regeneration (slow): 1000 repetitions per configuration.
bench-full:
	REPRO_BENCH_RUNS=1000 $(PY) -m pytest benchmarks/ --benchmark-only

# Sim-core throughput suite: measure and write BENCH_simcore.json.
perf:
	$(PY) -m benchmarks.perf.simcore --out benchmarks/out/BENCH_simcore.json

# Measure a fresh BENCH_simcore.json and print per-suite raw and
# calibration-normalized ratios against the committed baseline (the same
# report the CI perf-gate job uploads as its diff artifact).
perf-diff:
	$(PY) -m benchmarks.perf.simcore \
	  --out benchmarks/out/BENCH_simcore.json \
	  --baseline benchmarks/perf/baseline/BENCH_simcore.json \
	  --diff --diff-out benchmarks/out/BENCH_diff.txt

# The CI regression gate: measure and compare against the committed
# baseline (fails on >15% calibration-normalized slowdown; tune with
# REPRO_PERF_TOLERANCE).
perf-gate:
	$(PY) -m pytest benchmarks/perf/test_perf_gate.py -q

# Reachability probe: runs every hpl-repro command line at --jobs 1 under
# sys.setprofile and prints the never-called function lines per module and
# in total (about a minute).
reach:
	$(PY) -m benchmarks.reach

report:
	$(PY) -m repro.experiments.report 60 7 > EXPERIMENTS.md

figures:
	$(PY) -m repro.cli export benchmarks/out -n 60

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PY) $$ex || exit 1; done

# -prune stops find descending into directories it is about to delete,
# which otherwise spews "No such file or directory" noise.
clean:
	rm -rf benchmarks/out .pytest_cache .benchmarks .repro-cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
