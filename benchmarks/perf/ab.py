"""Paired A/B timing of sim-core lanes: a base revision against the working tree.

On a shared host whose speed swings by up to 1.5x within the hour, one
run of each side cannot resolve a 15% change, and calibration-normalized
scores do not close the gap.  Alternating pairs do: both sides of a pair
see nearly the same host, so the per-pair ratio cancels most of the drift.

CLI::

    python -m benchmarks.perf.ab --base HEAD~1 --only batch_churn --pairs 10

The base tree is ``git archive REV`` extracted into a temporary directory
(a local operation).  Each pair runs ``python -m benchmarks.perf.simcore
--only LANES`` once in the base tree and once in the working tree, each in
a fresh interpreter with that tree's ``src`` on ``PYTHONPATH``, and
alternates which side goes first.  For each lane it prints both sides'
median scores, the base's interquartile range, the median per-pair
head/base ratio and the pairs the head won.  Scores are higher-is-better
(see :mod:`benchmarks.perf.simcore`).  Nothing is gated or recorded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf.simcore import SUITE, _score

ROOT = Path(__file__).resolve().parents[2]


def extract(rev: str, dest: Path) -> None:
    """Write the tree of git revision *rev* of this checkout into *dest*."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(dest)


def run_side(tree: Path, lanes: Optional[List[str]], out: Path
             ) -> Dict[str, Dict[str, float]]:
    """Time *lanes* (None = the whole suite) in *tree* in a fresh
    interpreter; return its metrics by lane name."""
    cmd = [sys.executable, "-m", "benchmarks.perf.simcore", "--out", str(out)]
    if lanes:
        cmd += ["--only", *lanes]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(cmd, cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())["metrics"]


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(base: List[Dict[str, Dict[str, float]]],
              head: List[Dict[str, Dict[str, float]]]) -> List[str]:
    """One line per lane over paired runs (``base[i]`` with ``head[i]``).

    Only lanes both trees' suites report are compared; a lane one suite
    lacks gets a ``head only`` or ``base only`` line."""
    lines = [f"{'lane':24s} {'base':>12s} {'base IQR':>12s} {'head':>12s} "
             f"{'unit':9s} {'ratio':>7s}  wins"]
    for lane in [lane for lane in head[0] if lane in base[0]]:
        b = [run[lane]["score"] for run in base]
        h = [run[lane]["score"] for run in head]
        ratio = statistics.median(hv / bv for bv, hv in zip(b, h))
        wins = sum(hv > bv for bv, hv in zip(b, h))
        lines.append(
            f"{lane:24s} {_score({'score': statistics.median(b)})} "
            f"{_score({'score': _iqr(b)})} "
            f"{_score({'score': statistics.median(h)})} "
            f"{head[0][lane].get('unit', ''):9s} {ratio:6.3f}x  "
            f"{wins}/{len(b)}"
        )
    lines += [f"{lane:24s} head only" for lane in head[0] if lane not in base[0]]
    lines += [f"{lane:24s} base only" for lane in base[0] if lane not in head[0]]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--only", nargs="+", metavar="LANE",
                        help="lanes to time (default: the whole suite)")
    parser.add_argument("--pairs", type=int, default=5,
                        help="alternating base/head pairs (default 5)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    unknown = [lane for lane in args.only or () if lane not in SUITE]
    if unknown:
        parser.error(f"unknown lanes {unknown}; choose from {list(SUITE)}")

    with tempfile.TemporaryDirectory(prefix="repro-ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": ROOT}
        extract(args.base, trees["base"])
        runs: Dict[str, list] = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(
                    run_side(trees[side], args.only, Path(tmp) / "out.json"))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"base {args.base} vs working tree, {args.pairs} pair(s)")
    print("\n".join(summarize(runs["base"], runs["head"])))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
