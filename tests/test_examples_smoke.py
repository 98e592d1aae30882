"""Smoke tests: every example script must run end to end.

Run via subprocess with the smallest sensible arguments — the examples are
part of the public deliverable and must not rot.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

CASES = [
    ("quickstart.py", ["is", "A", "1"]),
    ("nas_variability_study.py", ["3", "is.A"]),
    ("scheduling_policies.py", ["3", "is", "A"]),
    ("noise_resonance.py", ["1"]),
    ("custom_workload.py", ["1"]),
    ("trace_a_run.py", ["1"]),
    ("isolcpus_vs_hpl.py", ["3"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"
