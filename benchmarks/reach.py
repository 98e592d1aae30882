"""Reachability probe: which functions of ``repro`` do the CLI's own
command lines never call?

Runs every command line of :data:`COMMANDS` in this interpreter (``--jobs
1`` where the command takes it, so each simulation runs here) under
``sys.setprofile``, in a temporary working directory with a fresh result
cache.  Then it parses every module of the imported ``repro`` package and
prints, per module, the functions no command called and the lines they
span, and the total.  A function nested in an uncalled function counts once,
inside its parent.  The total is the "never called" figure a deletion is
judged by; what it lists still needs a grep before anything goes.

Usage::

    PYTHONPATH=src python -m benchmarks.reach
    make reach PY="env PYTHONPATH=src python"

It takes about a minute on a 2-CPU host (the profile hook slows every
call) and is not part of any test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: The command lines, as ``hpl-repro`` arguments: all 16 subcommands, every
#: experiment and sweep, ``report`` and ``export``.  Later lines may read the
#: files earlier ones wrote (the trace, the telemetry feed).
COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("--version",),
    ("list",),
    ("topology",),
    ("run", "is", "A", "--regime", "hpl", "--seed", "2"),
    ("run", "ep", "A"),
    ("stat", "is", "A", "--regime", "hpl", "--ranks-only"),
    ("stat", "is", "A", "--sim-profile"),
    ("latency", "is", "A"),
    ("latency", "is", "A", "--regime", "hpl", "--all-tasks", "--histogram"),
    ("trace", "is", "A", "--format", "chrome", "-o", "trace.json"),
    ("trace", "is", "A", "--regime", "hpl", "--format", "ftrace", "-o", "trace.txt"),
    ("replay", "trace.json", "-o", "trace.svg"),
    ("replay", "trace.txt", "-o", "trace2.svg"),
    ("campaign", "is", "A", "-n", "3", "--jobs", "1", "--provenance", "prov.jsonl",
     "--telemetry", "feed.jsonl"),
    ("campaign", "is", "A", "-n", "3", "--jobs", "1", "--resume"),
    ("campaign", "mg", "A", "--regime", "rt", "-n", "2", "--jobs", "1", "--no-cache"),
    ("top", "feed.jsonl"),
    ("faults", "is", "A", "--offline-cores", "1", "--online-after", "20000"),
    ("faults", "is", "A", "--regime", "hpl", "--crash-rank", "1", "--ft-mode", "restart"),
    ("faults", "is", "A", "--random", "2", "--watchdog", "-n", "2", "--jobs", "1"),
    ("faults", "is", "A", "--cluster", "--nodes", "2", "--spares", "1", "--crash-node", "1",
     "--ft-mode", "restart"),
    ("faults", "is", "A", "--cluster", "--nodes", "2", "--slow-node", "0"),
    ("faults", "is", "A", "--cluster", "--nodes", "3", "--degrade-link", "20000",
     "--crash-node", "2", "--ft-mode", "restart", "--recover", "shrink"),
    ("batch", "fcfs", "-n", "1", "--jobs", "1", "--trace-jobs", "8"),
    ("batch", "easy", "-n", "2", "--jobs", "1", "--runtime-model", "analytic",
     "--provenance", "batch.jsonl"),
    ("batch", "share", "-n", "1", "--jobs", "1", "--runtime-model", "analytic",
     "--fail-node", "1@20000", "--drain-node", "2@30000", "--return-node", "1@60000"),
    ("batch", "priority", "-n", "1", "--jobs", "1", "--runtime-model", "analytic",
     "--mtbf", "40000", "--placement", "wary", "--drain-preempt"),
    ("experiment", "fig1", "-n", "3", "--jobs", "1"),
    ("experiment", "fig2", "-n", "3", "--jobs", "1"),
    ("experiment", "fig3", "-n", "3", "--jobs", "1"),
    ("experiment", "fig4", "-n", "3", "--jobs", "1"),
    ("experiment", "tab1a", "-n", "3", "--jobs", "1"),
    ("experiment", "tab1b", "-n", "3", "--jobs", "1"),
    ("experiment", "tab2", "-n", "3", "--jobs", "1"),
    ("experiment", "policy", "-n", "3", "--jobs", "1"),
    ("experiment", "resonance", "-n", "3", "--jobs", "1"),
    ("experiment", "multinode", "-n", "3", "--jobs", "1"),
    ("experiment", "decompose", "-n", "3", "--jobs", "1"),
    ("experiment", "resilience", "-n", "3", "--jobs", "1"),
    ("experiment", "cluster-resilience", "-n", "3", "--jobs", "1"),
    ("experiment", "two-level", "-n", "3", "--jobs", "1"),
    ("experiment", "batch-resilience", "-n", "3", "--jobs", "1"),
    ("sweep", "noise", "-n", "3", "--jobs", "1"),
    ("sweep", "smt", "-n", "3", "--jobs", "1"),
    ("sweep", "spin", "-n", "3", "--jobs", "1"),
    ("report", "-n", "3", "--jobs", "1"),
    ("export", "figures", "-n", "3", "--jobs", "1"),
    ("cache", "info"),
    ("cache", "clear"),
)

#: A function's identity: the real path of its file and its first line
#: (the first decorator's, as in ``co_firstlineno``).
Key = Tuple[str, int]


def run_commands(commands: Iterable[Tuple[str, ...]]) -> Set[Key]:
    """Run each command under the profile hook; return the (file, first
    line) of every Python function that was entered."""
    from repro.cli import main

    called: Set[object] = set()

    def hook(frame, event, arg) -> None:
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        old_cwd = os.getcwd()
        old_cache = os.environ.get("REPRO_CACHE_DIR")
        os.chdir(work)
        os.environ["REPRO_CACHE_DIR"] = str(Path(work) / "cache")
        try:
            for argv in commands:
                started = time.perf_counter()
                sink = io.StringIO()
                threading.setprofile(hook)
                sys.setprofile(hook)
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        status = main(list(argv))
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # a probe reports and goes on
                    status = f"{type(exc).__name__}: {exc}"
                finally:
                    sys.setprofile(None)
                    threading.setprofile(None)  # type: ignore[arg-type]
                print(f"  [{time.perf_counter() - started:6.1f}s] exit {status}: "
                      f"hpl-repro {' '.join(argv)}", file=sys.stderr)
        finally:
            os.chdir(old_cwd)
            if old_cache is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = old_cache
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}


def _functions(tree: ast.AST, prefix: str = ""):
    """Yield (node, qualified name) for the outermost functions inside
    *tree* (classes and statements are walked through, functions are not)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, prefix + node.name
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def never_called(package: Path, called: Set[Key]) -> Dict[str, List[Tuple[str, int]]]:
    """Per module (path relative to *package*'s parent): the outermost
    functions never entered, with the lines each spans."""
    out: Dict[str, List[Tuple[str, int]]] = {}
    for path in sorted(package.rglob("*.py")):
        real = os.path.realpath(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = list(_functions(tree))
        rows: List[Tuple[str, int]] = []
        while stack:
            node, name = stack.pop()
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (real, first) in called:
                stack.extend(
                    (inner, f"{name}.{inner_name}")
                    for inner, inner_name in _functions(node)
                )
            else:
                rows.append((name, node.end_lineno - first + 1))
        if rows:
            out[path.relative_to(package.parent).as_posix()] = sorted(rows)
    return out


def main() -> int:
    import repro

    package = Path(repro.__file__).resolve().parent
    called = run_commands(COMMANDS)
    table = never_called(package, called)
    total = 0
    for module, rows in table.items():
        lines = sum(n for _, n in rows)
        total += lines
        print(f"{lines:6d}  {module}")
        for name, n in rows:
            print(f"{n:10d}    {name}")
    print(f"{total:6d}  total function lines never called by {len(COMMANDS)} "
          f"command lines")
    return 0

if __name__ == "__main__":
    sys.exit(main())
