"""Run reports and figure emission.

Reports are plain data: per-layer work/traffic/energy rows, totals, and
derived figures of merit (effective GOp/s counts dense-equivalent work,
so exploiting sparsity raises it). Serialization is deterministic:
sorted JSON keys, no timestamps, atomic writes. Energy and timing
entries carry a provenance label so model defaults are never mistaken
for measured hardware numbers.

The scatter emitter reproduces a throughput-versus-power log-log chart
with iso-efficiency diagonals as a hand-rolled SVG; the coordinate
transform is exposed for tests.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from ._binio import atomic_write
from .memmodel import MemConfig

CONFIG_PROVENANCE = {
    "words_per_row": "model-default",
    "cycles_seq_word": "model-default",
    "row_change_factor": "ddr3-simulation-estimate",
    "e_dram_word": "model-default-ratio-only",
    "e_sram_word": "model-default-ratio-only",
    "e_mac": "model-default-ratio-only",
    "clock_hz": "model-default",
}


@dataclass
class LayerReport:
    index: int
    kind: str
    dense_equivalent_op: int
    executed_op: int
    efficiency_pct: float | None
    sparsity: float | None
    dram_bytes_by_tag: dict[str, int]
    sram_bytes_by_tag: dict[str, int]
    cycles: int
    energy_pj: float


@dataclass
class RunReport:
    name: str
    mode: str
    net_kind: str
    seed: int | None
    config: dict
    layers: list[LayerReport] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    foms: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        for layer in d["layers"]:
            if layer["efficiency_pct"] is None:
                layer["efficiency_pct"] = "n/a"
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        cols = ["index", "kind", "dense_equivalent_op", "executed_op",
                "efficiency_pct", "sparsity", "cycles", "energy_pj",
                "dram_weights_bytes", "dram_activations_bytes", "dram_state_bytes",
                "sram_weights_bytes", "sram_activations_bytes", "sram_state_bytes"]
        lines = [",".join(cols)]
        for l in self.layers:
            eff = "n/a" if l.efficiency_pct is None else f"{l.efficiency_pct:.4f}"
            spar = "" if l.sparsity is None else f"{l.sparsity:.6f}"
            row = [str(l.index), l.kind, str(l.dense_equivalent_op),
                   str(l.executed_op), eff, spar, str(l.cycles),
                   f"{l.energy_pj:.4f}"]
            for region in ("dram", "sram"):
                by = getattr(l, f"{region}_bytes_by_tag")
                row += [str(by.get(t, 0)) for t in ("weights", "activations", "state")]
            lines.append(",".join(row))
        t = self.totals
        lines.append(",".join([
            "total", self.net_kind, str(t.get("dense_equivalent_op", 0)),
            str(t.get("executed_op", 0)),
            "n/a" if t.get("efficiency_pct") is None else f"{t['efficiency_pct']:.4f}",
            "", str(t.get("cycles", 0)), f"{t.get('energy_pj', 0.0):.4f}",
            "", "", "", "", "", ""]))
        return "\n".join(lines) + "\n"

    def write(self, path: str, fmt: str = "json") -> None:
        if fmt == "json":
            atomic_write(path, self.to_json().encode())
        elif fmt == "csv":
            atomic_write(path, self.to_csv().encode())
        else:
            raise ValueError(f"unknown report format {fmt!r}")


def config_dict(cfg: MemConfig) -> dict:
    return {
        "mem": {k: getattr(cfg, k) for k in CONFIG_PROVENANCE},
        "provenance": dict(CONFIG_PROVENANCE),
    }


# --- throughput vs power scatter ---------------------------------------------

SVG_W, SVG_H = 640, 480
SVG_MARGIN = 60


@dataclass(frozen=True)
class LogLogAxes:
    """Log-log viewport: data (x, y) to pixel coordinates."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        lx = (math.log10(x) - math.log10(self.x_min)) / (
            math.log10(self.x_max) - math.log10(self.x_min))
        ly = (math.log10(y) - math.log10(self.y_min)) / (
            math.log10(self.y_max) - math.log10(self.y_min))
        px = SVG_MARGIN + lx * (SVG_W - 2 * SVG_MARGIN)
        py = SVG_H - SVG_MARGIN - ly * (SVG_H - 2 * SVG_MARGIN)
        return px, py

    def iso_decades(self) -> tuple[float, float]:
        """Decade bounds of the GOp/s-per-W ratios the viewport spans."""
        return (_decade(self.y_min / self.x_max, math.floor),
                _decade(self.y_max / self.x_min, math.ceil))


def _decade(v: float, rounding) -> float:
    """``10 ** rounding(log10(v))``; a ValueError when that power of ten
    is not a finite float above 0."""
    try:
        d = 10.0 ** rounding(math.log10(v))
    except (OverflowError, ValueError):  # log10(0), rounding inf or nan, 10.0 ** 309
        d = 0.0
    if not 0 < d < math.inf:
        raise ValueError("the chart's decade bounds leave the float range")
    return d


def scatter_axes(points: list[tuple[str, float, float]]) -> LogLogAxes:
    """Padded decade bounds for (name, watts, gops) points; a ValueError
    when a bound or the span of the iso-efficiency lines leaves the float
    range."""
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    x_min, x_max = _decade(min(xs), math.floor), _decade(max(xs), math.ceil)
    y_min, y_max = _decade(min(ys), math.floor), _decade(max(ys), math.ceil)
    if x_min == x_max:
        x_max *= 10.0
    if y_min == y_max:
        y_max *= 10.0
    axes = LogLogAxes(x_min, x_max, y_min, y_max)
    axes.iso_decades()  # refuses a ratio span, or a padded bound, past the float range
    return axes


# Label text is escaped by hand: xml.sax.saxutils would add its import
# time to every command. XML 1.0 can hold no C0 control character but
# tab, LF and CR, escaped or not, nor U+FFFE or U+FFFF: each of those is
# drawn as U+FFFD, the replacement character.
_XML_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
    | {c: "\ufffd" for c in (*range(0x20), 0xFFFE, 0xFFFF) if c not in (0x9, 0xA, 0xD)})


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _eff_label(gops_per_watt: float) -> str:
    if gops_per_watt >= 1000:
        return f"{_fmt(gops_per_watt / 1000)} TOp/s/W"
    return f"{_fmt(gops_per_watt)} GOp/s/W"


def iso_efficiency_segment(axes: LogLogAxes, gops_per_watt: float
                           ) -> tuple[float, float, float, float] | None:
    """Clip the line gops == k * watts to the viewport, in data coords."""
    x0 = max(axes.x_min, axes.y_min / gops_per_watt)
    x1 = min(axes.x_max, axes.y_max / gops_per_watt)
    if x0 >= x1:
        return None
    return x0, gops_per_watt * x0, x1, gops_per_watt * x1


def scatter_svg(points: list[tuple[str, float, float]]) -> str:
    """SVG log-log scatter of (name, watts, gops) with iso-diagonals."""
    pts = sorted(points)
    axes = scatter_axes(pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect x="0" y="0" width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{SVG_W - 2 * SVG_MARGIN}" '
        f'height="{SVG_H - 2 * SVG_MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{SVG_W / 2}" y="{SVG_H - 15}" text-anchor="middle" '
        f'font-size="14">Power (W)</text>',
        f'<text x="18" y="{SVG_H / 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {SVG_H / 2})">Effective throughput (GOp/s)</text>',
    ]
    k, k_hi = axes.iso_decades()
    while k <= k_hi:
        seg = iso_efficiency_segment(axes, k)
        if seg is not None:
            x0, y0, x1, y1 = seg
            p0, p1 = axes.to_px(x0, y0), axes.to_px(x1, y1)
            parts.append(
                f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" x2="{_fmt(p1[0])}" '
                f'y2="{_fmt(p1[1])}" stroke="lightgray" stroke-dasharray="4 3"/>')
            parts.append(
                f'<text x="{_fmt(p1[0] - 4)}" y="{_fmt(p1[1] - 4)}" '
                f'text-anchor="end" font-size="10" fill="gray">{_eff_label(k)}</text>')
        k *= 10.0
    for name, watts, gops in pts:
        px, py = axes.to_px(watts, gops)
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="steelblue"/>')
        parts.append(
            f'<text x="{_fmt(px + 6)}" y="{_fmt(py - 6)}" font-size="11">'
            f'{name.translate(_XML_ESCAPES)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _csv_field(text: str) -> str:
    """``text`` quoted, with its quotes doubled, when it holds a comma, a
    quote or a line break, as ``csv.QUOTE_MINIMAL`` does; else as is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def scatter_csv(points: list[tuple[str, float, float]]) -> str:
    lines = ["name,gops,watts,gops_per_watt"]
    for name, watts, gops in sorted(points):
        lines.append(f"{_csv_field(name)},{_fmt(gops)},{_fmt(watts)},{_fmt(gops / watts)}")
    return "\n".join(lines) + "\n"
