"""Tests for the SVG chart renderer and the campaign export module."""

import csv
import io
import xml.etree.ElementTree as ET

import pytest

from repro.analysis.svg import SvgCanvas, histogram_svg, scatter_svg
from repro.experiments.export import campaign_to_csv, export_figures
from repro.experiments.runner import run_nas_campaign


def parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


SVGNS = "{http://www.w3.org/2000/svg}"


# --------------------------------------------------------------------- SVG


def test_canvas_produces_valid_xml():
    c = SvgCanvas(200, 150)
    c.rect(10, 10, 50, 30, fill="#123456")
    c.circle(100, 60, 5, fill="red")
    c.line(0, 0, 10, 10)
    c.text(50, 50, "hello <world> & such")
    root = parse_svg(c.render())
    assert root.tag == f"{SVGNS}svg"
    tags = [child.tag for child in root]
    assert f"{SVGNS}rect" in tags and f"{SVGNS}circle" in tags
    assert "hello <world> & such" in "".join(root.itertext())


def test_canvas_size_validation():
    with pytest.raises(ValueError):
        SvgCanvas(10, 10)


def test_histogram_svg_structure():
    svg = histogram_svg([1, 2, 2, 3, 3, 3, 9], n_bins=8, title="demo")
    root = parse_svg(svg)
    bars = [
        e for e in root.iter(f"{SVGNS}rect")
        if e.get("fill") not in ("white",)
    ]
    assert len(bars) >= 3  # at least the non-empty bins
    assert "demo" in "".join(root.itertext())


def test_histogram_bar_heights_scale_with_counts():
    svg = histogram_svg([1.0] * 10 + [2.0], n_bins=2)
    root = parse_svg(svg)
    bars = sorted(
        (
            float(e.get("height"))
            for e in root.iter(f"{SVGNS}rect")
            if e.get("fill-opacity") == "0.85"
        ),
    )
    assert len(bars) == 2
    assert bars[1] > bars[0] * 5  # 10 vs 1


def test_scatter_svg_point_count():
    xs = [1, 2, 3, 4]
    ys = [2, 4, 6, 8]
    root = parse_svg(scatter_svg(xs, ys, title="s"))
    points = list(root.iter(f"{SVGNS}circle"))
    assert len(points) == 4


def test_scatter_validation():
    with pytest.raises(ValueError):
        scatter_svg([1, 2], [1])
    with pytest.raises(ValueError):
        scatter_svg([], [])


def test_degenerate_single_value_histogram():
    root = parse_svg(histogram_svg([5.0, 5.0], n_bins=4))
    assert root.tag == f"{SVGNS}svg"


# ------------------------------------------------------------------ export


@pytest.fixture(scope="module")
def small_campaign():
    return run_nas_campaign("is", "A", "hpl", 3, base_seed=9)


def test_campaign_csv_round_trip(small_campaign):
    text = campaign_to_csv(small_campaign)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0]["program"] == "is.A.8"
    assert float(rows[0]["app_time_s"]) > 0
    assert int(rows[0]["cpu_migrations"]) >= 8


def test_export_figures_writes_files(tmp_path):
    stock = run_nas_campaign("ep", "A", "stock", 4, base_seed=3)
    rt = run_nas_campaign("ep", "A", "rt", 4, base_seed=3)
    written = export_figures(tmp_path, stock_campaign=stock, rt_campaign=rt)
    names = {p.name for p in written}
    assert {"figure2.svg", "figure3a.svg", "figure3b.svg", "figure4.svg",
            "figure2_data.csv", "figure4_data.csv"} <= names
    for p in written:
        assert p.exists() and p.stat().st_size > 0
        if p.suffix == ".svg":
            parse_svg(p.read_text())  # valid XML
