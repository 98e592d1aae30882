"""Tests for statistics, histograms, correlation, and table rendering."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.correlation import binned_means, correlate, pearson, spearman
from repro.analysis.histogram import build_histogram, render_ascii_histogram
from repro.analysis.stats import summarize, variation_pct
from repro.analysis.tables import TextTable, render_table


# -------------------------------------------------------------------- stats


def test_variation_matches_paper_formula():
    # ep.A stock: min 8.54 max 14.59 -> 70.84% (paper Table II).
    assert variation_pct([8.54, 9.0, 14.59]) == pytest.approx(70.84, abs=0.05)


def test_variation_errors():
    with pytest.raises(ValueError):
        variation_pct([])
    with pytest.raises(ValueError):
        variation_pct([0.0, 1.0])


def test_summarize_fields():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.mean == pytest.approx(2.5)
    assert s.median == pytest.approx(2.5)
    assert s.variation == pytest.approx(300.0)
    assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))


def test_summarize_single_value():
    s = summarize([5.0])
    assert s.std == 0.0
    assert s.variation == 0.0


def test_row_formatting():
    s = summarize([1.234, 2.345])
    assert s.row() == (1.23, 1.79, 2.35, 90.03)


@given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
@example(values=[1.9, 1.9, 1.9])  # float mean can undershoot the minimum
def test_summary_invariants(values):
    s = summarize(values)
    assert s.minimum <= s.mean <= s.maximum
    assert s.minimum <= s.median <= s.maximum
    assert s.variation >= 0


@given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_variation_scale_invariant(values):
    v1 = variation_pct(values)
    v2 = variation_pct([x * 7.5 for x in values])
    assert v1 == pytest.approx(v2, rel=1e-9)


# ---------------------------------------------------------------- histogram


def test_histogram_counts_sum_to_n():
    h = build_histogram([1, 2, 2, 3, 10], n_bins=5)
    assert sum(h.counts) == 5
    assert h.n == 5
    assert len(h.edges) == 6


def test_histogram_explicit_range():
    h = build_histogram([1, 2, 3], n_bins=2, lo=0.0, hi=4.0)
    assert h.edges[0] == 0.0 and h.edges[-1] == 4.0


def test_histogram_degenerate_values():
    h = build_histogram([5.0, 5.0, 5.0], n_bins=3)
    assert sum(h.counts) == 3


def test_histogram_validation():
    with pytest.raises(ValueError):
        build_histogram([], n_bins=3)
    with pytest.raises(ValueError):
        build_histogram([1.0], n_bins=0)


def test_mode_bin_and_tail_mass():
    h = build_histogram([1, 1, 1, 1, 9], n_bins=4, lo=0, hi=10)
    assert h.mode_bin() == 0
    assert h.mass_above(5.0) == pytest.approx(0.2)


def test_bin_centers():
    h = build_histogram([0, 10], n_bins=2, lo=0, hi=10)
    assert h.bin_centers() == [2.5, 7.5]


def test_ascii_rendering():
    h = build_histogram([1, 2, 2, 3], n_bins=3)
    text = render_ascii_histogram(h, title="demo")
    assert "demo" in text
    assert "n=4" in text
    assert "#" in text


# -------------------------------------------------------------- correlation


def test_pearson_perfect_line():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)


def test_spearman_monotone():
    x = [1, 2, 3, 4, 5]
    y = [1, 10, 100, 1000, 10000]  # monotone but not linear
    assert spearman(x, y) == pytest.approx(1.0)


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats costs ~1 s to import and only the correlation functions
    # use it, so it must load on their first call, not with the CLI.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('scipy' in sys.modules)"],
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "False"


def test_cli_help_loads_no_numpy():
    # numpy costs ~0.16 s to import; the parser, --help and argument
    # errors need none of it, nor any repro module beyond the CLI's own.
    out = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from repro.cli import main\n"
         "with contextlib.suppress(SystemExit), "
         "contextlib.redirect_stdout(io.StringIO()):\n"
         "    main(['--help'])\n"
         "print('numpy' in sys.modules,"
         " *sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.split() == ["False", "repro", "repro._lazy", "repro.cli"]


def test_correlation_validation():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2])


def test_binned_means_trend():
    x = list(range(100))
    y = [2.0 * v for v in x]
    trend = binned_means(x, y, n_bins=5)
    ys = [t[1] for t in trend]
    assert ys == sorted(ys)
    assert sum(t[2] for t in trend) == 100


def test_correlate_report():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 100, 200)
    y = 3.0 + 0.01 * x + rng.normal(0, 0.05, 200)
    report = correlate(x.tolist(), y.tolist(), event="migrations")
    assert report.event == "migrations"
    assert report.positive
    assert report.pearson_r > 0.8
    assert len(report.points) == 200


# -------------------------------------------------------------------- tables


def test_text_table_renders_aligned():
    t = TextTable("demo", ["a", "bb"])
    t.add_row(1, 2.345)
    t.add_row("xx", "y")
    text = t.render()
    lines = text.splitlines()
    assert "demo" in lines[0]
    assert all(len(l) == len(lines[2]) for l in lines[2:4])
    assert "2.35" in text  # float formatting


def test_table_rejects_ragged_rows():
    t = TextTable("x", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)
    with pytest.raises(ValueError):
        render_table("x", ["a"], [["1", "2"]])
