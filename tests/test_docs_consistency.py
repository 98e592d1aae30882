"""Documentation consistency guards: the files the docs promise exist, and
the deliverable inventory stays complete."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_top_level_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "CITATION.cff", "Makefile", "pyproject.toml"):
        assert (ROOT / name).exists(), name


def test_docs_directory_complete():
    for name in ("architecture.md", "modelling.md", "calibration.md", "api.md"):
        assert (ROOT / "docs" / name).exists(), name


def test_readme_examples_table_matches_files():
    readme = (ROOT / "README.md").read_text()
    listed = set(re.findall(r"`([a-z_]+\.py)`", readme))
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    # Every example on disk is advertised, and vice versa.
    missing_in_readme = on_disk - listed
    assert not missing_in_readme, missing_in_readme
    phantom = {name for name in listed if name.endswith(".py")} - on_disk - {
        "quickstart.py"} | ({"quickstart.py"} - on_disk)
    # (quickstart must exist too)
    assert (ROOT / "examples" / "quickstart.py").exists()


def test_design_experiment_index_covers_benchmarks():
    design = (ROOT / "DESIGN.md").read_text()
    bench_files = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    for name in bench_files:
        assert name in design, f"{name} missing from DESIGN.md experiment index"


def test_benchmarks_exist_for_every_paper_artifact():
    benches = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    required = {
        "test_bench_fig1_preemption.py",
        "test_bench_fig2_distribution.py",
        "test_bench_fig3_correlation.py",
        "test_bench_fig4_rt.py",
        "test_bench_table1.py",
        "test_bench_table2.py",
    }
    assert required <= benches


def test_experiments_md_has_every_table_row():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for bench in ("cg", "ep", "ft", "is", "lu", "mg"):
        for klass in ("A", "B"):
            assert f"{bench}.{klass}.8" in text


def test_paper_headline_quoted_consistently():
    """The paper's headline numbers appear in the docs verbatim."""
    design = (ROOT / "DESIGN.md").read_text()
    assert "2.11%" in design
    readme = (ROOT / "README.md").read_text()
    assert "2.11%" in readme


# Documents whose module names, imports and bench files must stay real.
NAMING_DOCS = ("DESIGN.md", "README.md",
               *(f"docs/{p.name}" for p in sorted((ROOT / "docs").glob("*.md"))))


def _resolve(dotted):
    """Import the longest module prefix of *dotted*, then walk the rest as
    attributes (lazy package exports included)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


def test_documented_repro_names_resolve():
    """Every backticked dotted ``repro.`` name in prose, and every ``from
    repro... import ...`` in a python code block, resolves."""
    names = set()
    for doc in NAMING_DOCS:
        text = (ROOT / doc).read_text()
        prose = re.sub(r"```.*?```", "", text, flags=re.S)
        for span in re.findall(r"`([^`\n]+)`", prose):
            names |= {(doc, name) for name in
                      re.findall(r"(?<![\w.])repro(?:\.\w+)+", span)}
        for block in re.findall(r"```python\n(.*?)```", text, flags=re.S):
            for node in ast.walk(ast.parse(block)):
                if (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[0] == "repro"):
                    names |= {(doc, f"{node.module}.{alias.name}")
                              for alias in node.names}
    assert names
    missing = []
    for doc, name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(f"{doc}: {name}")
    assert not missing, missing


def test_documented_benchmarks_exist():
    """The reverse of the experiment-index check: every bench file the docs
    name is on disk."""
    on_disk = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    phantom = sorted({
        f"{doc}: {name}" for doc in NAMING_DOCS
        for name in re.findall(r"test_bench_\w+\.py", (ROOT / doc).read_text())
        if name not in on_disk
    })
    assert not phantom, phantom


def test_benchmark_artifacts_have_a_writer():
    """Every .txt/.svg under benchmarks/out/ is named by a string literal in
    benchmarks/ or by the Makefile; one whose writer is gone is stale."""
    literals = set()
    for path in (ROOT / "benchmarks").rglob("*.py"):
        literals |= {node.value for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)}
    makefile = (ROOT / "Makefile").read_text()
    out = ROOT / "benchmarks" / "out"
    orphans = sorted(
        p.name for p in (*out.glob("*.txt"), *out.glob("*.svg"))
        if p.name not in literals and p.name not in makefile
    )
    assert not orphans, orphans
