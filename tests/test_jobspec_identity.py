"""Spec identity: cheap, exact, and tied to the model code.

A spec's digest is the key of the result cache, the journal and the
campaign digest.  These tests pin three properties of it:

* :func:`~repro.parallel.jobspec.program_digest` moves with every field of
  a program and of each phase, tells ``1`` from ``1.0``, and is equal for
  equal programs built by separate factory calls;
* a campaign fingerprints each spec exactly once, cold, warm and resumed;
* two copies of the source that differ in one model constant — in a model
  package or in a single model file — have different
  :func:`~repro.parallel.jobspec.model_epoch` values, so the second copy
  misses the first one's result cache, journal and pricing store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.spmd import Phase, PhaseKind, Program
from repro.batch.campaign import run_batch_campaign
from repro.batch.workload import WorkloadConfig
from repro.experiments.runner import run_campaign, run_cluster_campaign
from repro.parallel.jobspec import (
    BatchRunSpec,
    ClusterRunSpec,
    RunSpec,
    model_epoch,
    program_digest,
)
from repro.topology.presets import generic_smp
from repro.units import msecs

# ------------------------------------------------------------ program digest

_BASE_PHASE = Phase(kind=PhaseKind.COMPUTE, work=100, label="c")


def _changed(field: dataclasses.Field, value):
    """A valid value of *field* different from *value*."""
    if field.name == "kind":
        return PhaseKind.SYNC
    if field.name == "wait_mode":
        return "block"
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    raise AssertionError(f"no variant for {field.name}={value!r}")


def _program(*phases: Phase, **fields) -> Program:
    return Program(phases=phases or (_BASE_PHASE,), **fields)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Phase)])
def test_every_phase_field_moves_the_program_digest(name):
    field = next(f for f in dataclasses.fields(Phase) if f.name == name)
    other = dataclasses.replace(
        _BASE_PHASE, **{name: _changed(field, getattr(_BASE_PHASE, name))}
    )
    assert program_digest(_program(other)) != program_digest(_program())


@pytest.mark.parametrize("change", [
    {"name": "other"},
    {"run_jitter_sigma": 0.25},
    {"phases": (_BASE_PHASE, _BASE_PHASE)},
])
def test_every_program_field_moves_the_program_digest(change):
    assert program_digest(dataclasses.replace(_program(), **change)) != \
        program_digest(_program())


def test_int_and_float_values_digest_differently():
    ints = _program(Phase(kind=PhaseKind.COMPUTE, work=1))
    floats = _program(Phase(kind=PhaseKind.COMPUTE, work=1.0))
    assert ints == floats
    assert program_digest(ints) != program_digest(floats)
    assert program_digest(_program(run_jitter_sigma=0)) != \
        program_digest(_program(run_jitter_sigma=0.0))


def test_equal_programs_from_separate_factory_calls_digest_equal():
    def factory() -> Program:
        return Program.iterative(name="f", n_iters=5, iter_work=msecs(2))

    a, b = factory(), factory()
    assert a is not b and a.phases is not b.phases
    assert program_digest(a) == program_digest(b)
    assert len(program_digest(a)) == 32


def test_fingerprints_carry_the_program_digest_and_the_epoch():
    program = _program()
    node = RunSpec(run_index=0, seed=1, program=program, nprocs=2,
                   regime="stock", machine=generic_smp(2))
    cluster = ClusterRunSpec(run_index=0, seed=1, program=program, n_nodes=2,
                             nprocs_per_node=2, regime="stock")
    batch = BatchRunSpec(run_index=0, seed=1, policy="fcfs", pool_nodes=2,
                         regime="stock", workload=WorkloadConfig(n_jobs=2))
    for spec in (node, cluster):
        assert spec.fingerprint()["program"] == program_digest(program)
    for spec in (node, cluster, batch):
        assert spec.fingerprint()["epoch"] == model_epoch()
        assert len(spec.digest()) == 32


# ------------------------------------------------- one fingerprint per spec


def _tiny_program() -> Program:
    return Program.iterative(
        name="ident", n_iters=2, iter_work=msecs(1), init_ops=1, finalize_ops=0
    )


N_RUNS = 3

#: kind -> (spec class, campaign call)
_KINDS = {
    "node": (RunSpec, lambda **kw: run_campaign(
        _tiny_program, 4, "stock", N_RUNS,
        machine_factory=lambda: generic_smp(4), **kw)),
    "cluster": (ClusterRunSpec, lambda **kw: run_cluster_campaign(
        _tiny_program, 2, "stock", N_RUNS, nprocs_per_node=2, **kw)),
    "batch": (BatchRunSpec, lambda **kw: run_batch_campaign(
        "fcfs", 2, "stock", N_RUNS, runtime_model="analytic",
        workload=WorkloadConfig(n_jobs=3, interarrival_us=3_000, max_nodes=2),
        **kw)),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_campaign_fingerprints_each_spec_once(kind, tmp_path, monkeypatch):
    spec_cls, launch = _KINDS[kind]
    calls = []
    fingerprint = spec_cls.fingerprint

    def counting(self):
        calls.append(self.run_index)
        return fingerprint(self)

    monkeypatch.setattr(spec_cls, "fingerprint", counting)
    opts = dict(n_jobs=1, use_cache=True, cache_dir=str(tmp_path / "cache"))

    cold = launch(**opts)
    assert cold.cache_hits == 0 and sorted(calls) == list(range(N_RUNS))
    calls.clear()
    resumed = launch(resume=True, **opts)
    assert resumed.replayed == N_RUNS and sorted(calls) == list(range(N_RUNS))
    calls.clear()
    warm = launch(**opts)
    assert warm.cache_hits == N_RUNS and sorted(calls) == list(range(N_RUNS))


# ------------------------------------------------- two trees, two epochs

_CAMPAIGN = """
import json
import sys
import repro
import repro.cluster.multinode as multinode
from repro.batch import WorkloadConfig, run_batch_campaign
from repro.parallel.jobspec import model_epoch
from repro.parallel.supervisor import NoJournalError

calls = []

class Result:
    app_time = 4242

def fake(*args, **kwargs):
    calls.append(1)
    return Result()

multinode.run_cluster_job = fake
cache_dir, mode = sys.argv[1], sys.argv[2]
out = {"epoch": model_epoch(), "file": repro.__file__}
try:
    res = run_batch_campaign(
        "fcfs", 2, "hpl", 2,
        workload=WorkloadConfig(n_jobs=3, interarrival_us=3_000, max_nodes=2),
        runtime_model="sim", n_jobs=1, use_cache=True, cache_dir=cache_dir,
        resume=mode != "cold", resume_missing_ok=mode == "lenient",
    )
    out.update(hits=res.cache_hits, replayed=res.replayed, sims=len(calls))
except NoJournalError:
    out["no_journal"] = True
print(json.dumps(out))
"""

#: (file under src/repro, text, replacement): one model constant each.
_EDITS = {
    "model-package": ("kernel/sched_core.py",
                      "_WORK_EPSILON = 2\n", "_WORK_EPSILON = 3\n"),
    "runner": ("experiments/runner.py",
               "_JOB_START = msecs(50)\n", "_JOB_START = msecs(51)\n"),
}


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_other_model_source_misses_cache_journal_and_pricing(edit, tmp_path):
    rel, old, new = _EDITS[edit]
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    copies = {}
    for name in ("a", "b"):
        copies[name] = tmp_path / name
        shutil.copytree(src, copies[name] / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
    target = copies["b"] / "repro" / rel
    text = target.read_text()
    assert text.count(old) == 1
    target.write_text(text.replace(old, new))
    cache_dir = tmp_path / "cache"

    def campaign(name, mode):
        env = dict(os.environ, PYTHONPATH=str(copies[name]))
        out = json.loads(subprocess.run(
            [sys.executable, "-c", _CAMPAIGN, str(cache_dir), mode], env=env,
            check=True, capture_output=True, text=True,
        ).stdout)
        assert Path(out.pop("file")).is_relative_to(copies[name])
        return out

    cold = campaign("a", "cold")
    assert (cold["hits"], cold["replayed"]) == (0, 0) and cold["sims"] > 0
    warm = campaign("a", "strict")
    assert warm == dict(cold, hits=2, replayed=2, sims=0)

    # The other tree finds no journal of its own to resume from ...
    refused = campaign("b", "strict")
    assert refused.pop("no_journal") is True
    assert refused["epoch"] != cold["epoch"]
    # ... so a lenient --resume starts fresh: no cached result, no journal
    # replay, and every price simulated again.
    fresh = campaign("b", "lenient")
    assert fresh == dict(refused, hits=0, replayed=0, sims=cold["sims"])
