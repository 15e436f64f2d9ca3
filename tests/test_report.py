"""Report serialization and the throughput/power scatter emitter."""

import json
import math
from dataclasses import fields

import pytest

from sparsebench.memmodel import MemConfig
from sparsebench.report import (
    CONFIG_PROVENANCE,
    SVG_H,
    SVG_MARGIN,
    SVG_W,
    LayerReport,
    LogLogAxes,
    RunReport,
    config_dict,
    iso_efficiency_segment,
    scatter_axes,
    scatter_csv,
    scatter_svg,
)


def _layer(idx=0, eff=250.0):
    return LayerReport(
        index=idx, kind="conv", dense_equivalent_op=1000, executed_op=400,
        efficiency_pct=eff, sparsity=0.5,
        dram_bytes_by_tag={"weights": 10, "activations": 4, "state": 0},
        sram_bytes_by_tag={"weights": 2, "activations": 2, "state": 0},
        cycles=77, energy_pj=12.5)


def _report():
    r = RunReport("demo", "sparse", "conv", 7, config_dict(MemConfig()))
    r.layers = [_layer(0), _layer(1, eff=None)]
    r.totals = {"dense_equivalent_op": 2000, "executed_op": 800,
                "efficiency_pct": 250.0, "cycles": 154, "energy_pj": 25.0}
    r.foms = {"effective_gops": 1.0, "watts": 0.5, "gops_per_watt": 2.0,
              "simulated_seconds": 1e-7}
    return r


def test_json_is_sorted_and_stable():
    a, b = _report().to_json(), _report().to_json()
    assert a == b
    d = json.loads(a)
    assert list(d.keys()) == sorted(d.keys())
    assert d["layers"][1]["efficiency_pct"] == "n/a"
    assert d["config"]["provenance"]["row_change_factor"] == "ddr3-simulation-estimate"


def test_csv_shape():
    lines = _report().to_csv().strip().split("\n")
    assert lines[0].startswith("index,kind,dense_equivalent_op")
    assert len(lines) == 1 + 2 + 1  # header, two layers, totals
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[4] == "n/a"
    assert lines[3].split(",")[0] == "total"


def test_report_file_roundtrip(tmp_path):
    path = str(tmp_path / "r.json")
    _report().write(path, "json")
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    assert d["name"] == "demo" and d["seed"] == 7
    csv_path = str(tmp_path / "r.csv")
    _report().write(csv_path, "csv")
    assert open(csv_path).read() == _report().to_csv()
    with pytest.raises(ValueError):
        _report().write(str(tmp_path / "r.xml"), "xml")


def test_config_dict_covers_every_mem_field():
    d = config_dict(MemConfig())
    assert set(d["mem"]) == set(d["provenance"])
    assert d["mem"]["row_change_factor"] == 50


def test_config_provenance_names_exactly_the_mem_fields():
    # a field added to MemConfig without a provenance label would be
    # missing from every report's config
    assert sorted(CONFIG_PROVENANCE) == sorted(f.name for f in fields(MemConfig))


# --- scatter chart ------------------------------------------------------------------

POINTS = [("a", 1.0, 10.0), ("b", 10.0, 500.0), ("c", 0.5, 2.0)]


def test_axes_snap_to_decades():
    axes = scatter_axes(POINTS)
    assert axes.x_min == 0.1 and axes.x_max == 10.0
    assert axes.y_min == 1.0 and axes.y_max == 1000.0


def test_to_px_maps_corners_to_plot_frame():
    axes = LogLogAxes(0.1, 10.0, 1.0, 1000.0)
    assert axes.to_px(0.1, 1.0) == (SVG_MARGIN, SVG_H - SVG_MARGIN)
    assert axes.to_px(10.0, 1000.0) == (SVG_W - SVG_MARGIN, SVG_MARGIN)
    px, py = axes.to_px(1.0, 1000.0)
    assert px == pytest.approx((SVG_MARGIN + SVG_W - SVG_MARGIN) / 2)
    assert py == SVG_MARGIN


def test_iso_efficiency_segment_clipping():
    axes = LogLogAxes(0.1, 10.0, 1.0, 1000.0)
    seg = iso_efficiency_segment(axes, 100.0)
    assert seg is not None
    x0, y0, x1, y1 = seg
    assert y0 == pytest.approx(100.0 * x0) and y1 == pytest.approx(100.0 * x1)
    assert x0 >= axes.x_min and x1 <= axes.x_max
    assert y0 >= axes.y_min and y1 <= axes.y_max
    # a diagonal far above the viewport never enters it
    assert iso_efficiency_segment(axes, 1e9) is None


def test_svg_contains_points_labels_and_diagonals():
    svg = scatter_svg(POINTS)
    assert svg.count("<circle") == 3
    for name in ("a", "b", "c"):
        assert f">{name}</text>" in svg
    assert "Power (W)" in svg
    assert "Effective throughput (GOp/s)" in svg
    assert "GOp/s/W" in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_svg_labels_switch_to_tops_per_watt():
    pts = [("x", 0.001, 5000.0)]  # 5e6 GOp/s/W territory
    assert "TOp/s/W" in scatter_svg(pts)


def test_scatter_csv_sorted_with_ratio():
    lines = scatter_csv(POINTS).strip().split("\n")
    assert lines[0] == "name,gops,watts,gops_per_watt"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["a", "b", "c"]
    row_b = lines[2].split(",")
    assert float(row_b[3]) == pytest.approx(500.0 / 10.0)


def test_svg_is_deterministic_under_input_order():
    assert scatter_svg(POINTS) == scatter_svg(list(reversed(POINTS)))
