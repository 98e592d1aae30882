"""Import discipline: a command loads only the modules it runs.

Package ``__init__`` files re-export lazily (:mod:`repro._lazy`),
annotation-only imports sit under ``TYPE_CHECKING``, and heavy standard
library modules (``multiprocessing``, ``xml``) load only where they are
used.  The budget is pinned in fresh interpreters; the lazy API is pinned
to behave like the eager re-exports it replaced.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


def _fresh(script: str) -> str:
    """Run *script* in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True,
    ).stdout


# ------------------------------------------------------------ import budget

_BATCH_PASS = """
import sys
import repro.cli, repro.batch
from repro.batch import BATCH_POLICIES, WorkloadConfig, generate_trace, simulate_batch
trace = generate_trace(WorkloadConfig(n_jobs=40, interarrival_us=1_840, max_nodes=4), 0)
for policy in BATCH_POLICIES:
    simulate_batch(trace, 16, policy, runtime_model="analytic").schedule_digest()
print(" ".join(sorted(sys.modules)))
"""

#: Modules an analytic batch pass has no use for: the node kernel, the
#: campaign runner, trace replay, SVG rendering, the process pool, and
#: what ``xml.sax`` drags in.
_NOT_FOR_BATCH = (
    "repro.kernel.kernel",
    "repro.experiments.runner",
    "repro.obs.replay",
    "repro.analysis.svg",
    "multiprocessing",
    "xml.sax",
    "urllib.request",
)


def test_analytic_batch_pass_loads_only_the_batch_layer():
    loaded = set(_fresh(_BATCH_PASS).split())
    assert not loaded & set(_NOT_FOR_BATCH)
    assert len({m for m in loaded if m.split(".")[0] == "repro"}) <= 25


def test_serial_node_campaign_never_loads_multiprocessing():
    loaded = set(_fresh(
        "import sys\n"
        "from repro.experiments.runner import run_nas_campaign\n"
        "run_nas_campaign('is', 'A', 'hpl', 2, n_jobs=1)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    ).split())
    assert "repro.kernel.kernel" in loaded  # the campaign really ran
    assert "multiprocessing" not in loaded


def test_importing_every_package_loads_no_submodule():
    loaded = _fresh(
        f"import sys\nimport {', '.join(PACKAGES)}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    ).split()
    assert sorted(loaded) == sorted(PACKAGES + ["repro._lazy"])


# ---------------------------------------------------------------- lazy API


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_by_getattr_star_and_dir(name):
    package = importlib.import_module(name)
    assert package.__all__
    listed = dir(package)
    for export in package.__all__:
        assert export in listed
        getattr(package, export)
    star: dict = {}
    exec(f"from {name} import *", star)
    for export in package.__all__:
        assert star[export] is getattr(package, export)


def test_exports_are_the_defining_modules_objects():
    from repro.batch.dispatcher import simulate_batch
    from repro.kernel.kernel import Kernel
    from repro.parallel.supervisor import supervise_campaign

    assert repro.Kernel is Kernel
    assert repro.kernel.Kernel is Kernel
    assert repro.batch.simulate_batch is simulate_batch
    assert repro.parallel.supervise_campaign is supervise_campaign


def test_submodules_resolve_as_attributes():
    loaded = _fresh(
        "import repro\n"
        "print(repro.experiments.runner.run_nas is repro.run_nas,"
        " repro.kernel.Kernel is repro.Kernel)\n"
    )
    assert loaded.split() == ["True", "True"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        repro.kernel.NoSuchName
    assert not hasattr(repro.batch, "no_such_name")
    with pytest.raises(ImportError):
        exec("from repro.faults import NoSuchName", {})
