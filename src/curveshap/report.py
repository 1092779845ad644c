"""Rendering of attributions, curves, and bands to SVG 1.1 and CSV.

SVG is the only graphic format (deterministic, diffable, no raster
dependencies).  Documents are assembled through ElementTree, so every
emitted file is well-formed XML by construction.  Numeric labels follow
the 2-decimal percent convention; CSV cells carry 12 significant digits.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import csv_cell, write_text
from .errors import DataError
from .game import PRC_SLICE, ROC_SLICE, PayoffTable
from .shapley import EFFICIENCY_TOL, Attribution, CurveAttribution
from .uncertainty import BandedSeries, McAttribution, McCurveAttribution

GAP_TOL = 1e-9

# Categorical palette assigned by feature index (wraps after ten).
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc949", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)
POSITIVE_COLOR = "#59a14f"
NEGATIVE_COLOR = "#e15759"
ANCHOR_COLOR = "#79706e"
REFERENCE_COLOR = "#555555"

# Each slice kind's abscissa: its CSV column and its axis label.
_ABSCISSA = {ROC_SLICE: ("fpr", "false positive rate"), PRC_SLICE: ("recall", "recall")}


def color_for(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

def format_cell(value) -> str:
    if isinstance(value, str):
        return csv_cell(value)
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return f"{float(value):.12g}"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(map(csv_cell, header))]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def attribution_rows(attr: Attribution):
    header = ["feature", "phi", "percent"]
    rows = [
        (name, float(attr.values[i]), f"{100.0 * attr.values[i]:.2f}")
        for i, name in enumerate(attr.feature_names)
    ]
    return header, rows


def curve_attribution_rows(ca: CurveAttribution):
    header = [_ABSCISSA[ca.kind][0], *ca.feature_names, "reference", "baseline"]
    rows = []
    for j, q in enumerate(ca.abscissae):
        rows.append(
            (float(q), *(float(v) for v in ca.values[:, j]),
             float(ca.reference[j]), float(ca.baselines[j]))
        )
    return header, rows


def banded_rows(b: BandedSeries):
    header = ["fpr", "mean", "std"]
    rows = [
        (float(x), float(m), float(s))
        for x, m, s in zip(b.abscissae, b.mean, b.std)
    ]
    return header, rows


def slice_band_rows(mcca: McCurveAttribution):
    header = [_ABSCISSA[mcca.kind][0]]
    for name in mcca.feature_names:
        header += [f"mean_{name}", f"std_{name}"]
    rows = []
    for j, q in enumerate(mcca.abscissae):
        row = [float(q)]
        for i in range(len(mcca.feature_names)):
            row += [float(mcca.mean[i, j]), float(mcca.std[i, j])]
        rows.append(row)
    return header, rows


def mc_attribution_rows(mca: McAttribution):
    header = ["feature", "mean_phi", "std_phi"]
    rows = [
        (name, float(mca.mean[i]), float(mca.std[i]))
        for i, name in enumerate(mca.feature_names)
    ]
    return header, rows


def write_payoffs(path: str | Path, table: PayoffTable) -> None:
    """Write `payoffs.csv`: a coalition_mask,members,payoff line per
    coalition, members named in bit order and joined by '+'.

    The member strings of the low ⌈n/2⌉ bits and of the high bits are built
    by doubling: the string of m is the string of m without its highest bit,
    then '+', then that bit's name.  A mask's members join one string from
    each table, and its line is written in the chunk of its high bits, so the
    writer holds O(2^(n/2)) strings and one chunk, never all 2^n lines.
    """
    names = table.feature_names
    half = (len(names) + 1) // 2
    low, high = _member_strings(names[:half]), _member_strings(names[half:])

    def chunks():
        yield "coalition_mask,members,payoff\n"
        for h, upper in enumerate(high):
            first = h << half
            members = [upper] + [lower + "+" + upper if upper else lower for lower in low[1:]]
            values = table.values[first:first + len(low)].tolist()
            yield "".join([
                f"{mask},{csv_cell(m)},{value:.12g}\n"
                for mask, m, value in zip(range(first, first + len(low)), members, values)
            ])

    write_text(path, chunks())


def _member_strings(names: Sequence[str]) -> list[str]:
    """The '+'-joined member names of every mask over `names`, by mask."""
    strings = [""]
    for name in names:
        strings += [f"{s}+{name}" if s else name for s in strings]
    return strings


# ----------------------------------------------------------------------
# Plot documents
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Series:
    name: str
    x: np.ndarray
    y: np.ndarray
    color: str
    dash: str | None = None


@dataclass(frozen=True, eq=False)
class Band:
    x: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    color: str


@dataclass(frozen=True, eq=False)
class PlotDocument:
    """Line/band chart over a numeric x axis.

    Series values may contain NaN to mark gaps; they are never emitted as
    coordinates.  Infinite values are rejected outright.
    """

    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    bands: tuple[Band, ...] = ()

    def __post_init__(self):
        for s in self.series:
            if np.isinf(s.x).any() or np.isinf(s.y).any() or np.isnan(s.x).any():
                raise DataError(f"series {s.name!r} has non-plottable coordinates")
        for b in self.bands:
            for arr in (b.x, b.lo, b.hi):
                if not np.isfinite(arr).all():
                    raise DataError("band coordinates must be finite")

    def data_ranges(self):
        xs, ys = [], []
        for s in self.series:
            xs.append(s.x)
            finite = s.y[np.isfinite(s.y)]
            if finite.size:
                ys.append(finite)
        for b in self.bands:
            xs.append(b.x)
            ys.extend([b.lo, b.hi])
        x_all = np.concatenate(xs) if xs else np.array([0.0, 1.0])
        y_all = np.concatenate(ys) if ys else np.array([0.0, 1.0])
        return (
            _padded(float(x_all.min()), float(x_all.max())),
            _padded(float(y_all.min()), float(y_all.max())),
        )

    def to_svg(self) -> str:
        return _render_plot(self)


@dataclass(frozen=True)
class WhiskerBar:
    name: str
    value: float
    err: float
    color: str


@dataclass(frozen=True, eq=False)
class WhiskerChart:
    """Categorical bar chart with ±err whisker lines (Monte-Carlo bars)."""

    title: str
    y_label: str
    bars: tuple[WhiskerBar, ...]

    def __post_init__(self):
        for b in self.bars:
            if not (np.isfinite(b.value) and np.isfinite(b.err) and b.err >= 0):
                raise DataError(f"bar {b.name!r} has invalid value/err")

    def to_svg(self) -> str:
        columns = [(b.name, 0.0, b.value, b.color, percent(b.value), b.err) for b in self.bars]
        return _render_columns(columns, self.title, self.y_label,
                               pad=0.05, width=0.55, opacity=0.85, min_height=0.0)


@dataclass(frozen=True)
class WaterfallSpec:
    """Baseline → per-feature contributions → total, ordered by |φ| desc."""

    baseline_label: str
    baseline: float
    bars: tuple[tuple[str, float], ...]
    total_label: str
    total: float

    def __post_init__(self):
        drift = abs(self.baseline + sum(v for _, v in self.bars) - self.total)
        if drift > EFFICIENCY_TOL:
            raise DataError("waterfall does not add up: baseline + bars != total")
        magnitudes = [abs(v) for _, v in self.bars]
        if any(a < b for a, b in zip(magnitudes, magnitudes[1:])):
            raise DataError("waterfall bars must be ordered by decreasing |φ|")


def waterfall(attr: Attribution) -> WaterfallSpec:
    """Waterfall layout of an attribution, bars sorted by decreasing |φ|."""
    order = sorted(
        range(attr.n), key=lambda i: -abs(float(attr.values[i]))
    )
    bars = tuple(
        (attr.feature_names[i], float(attr.values[i])) for i in order
    )
    return WaterfallSpec(
        "random baseline", attr.baseline, bars, attr.target.describe(), attr.total
    )


def contribution_curves(ca: CurveAttribution) -> PlotDocument:
    """One series per feature plus the combined (reference − baseline) envelope."""
    series = [
        Series(name, ca.abscissae, ca.values[i], color_for(i))
        for i, name in enumerate(ca.feature_names)
    ]
    series.append(
        Series(
            "combined", ca.abscissae, ca.reference - ca.baselines,
            REFERENCE_COLOR, dash="6 3",
        )
    )
    return PlotDocument(
        "Per-feature contribution curves", _ABSCISSA[ca.kind][1], "Shapley contribution",
        tuple(series),
    )


def relative_contributions(ca: CurveAttribution) -> PlotDocument:
    """φ_i / Σφ_j per grid point; points with |Σφ| < 1e-9 become gaps."""
    denom = ca.values.sum(axis=0)
    safe = np.where(np.abs(denom) < GAP_TOL, np.nan, denom)
    series = tuple(
        Series(name, ca.abscissae, ca.values[i] / safe, color_for(i))
        for i, name in enumerate(ca.feature_names)
    )
    return PlotDocument(
        "Relative contributions", _ABSCISSA[ca.kind][1], "share of combined contribution",
        series,
    )


def banded_plot(
    b: BandedSeries,
    title: str = "Monte-Carlo band",
    y_label: str = "true positive rate",
    clip: tuple[float, float] | None = (0.0, 1.0),
    color: str = PALETTE[0],
) -> PlotDocument:
    """Mean line with a mean±std band, clipped to the metric's valid range."""
    lo = b.mean - b.std
    hi = b.mean + b.std
    if clip is not None:
        lo = np.clip(lo, clip[0], clip[1])
        hi = np.clip(hi, clip[0], clip[1])
    return PlotDocument(
        title, "false positive rate", y_label,
        (Series("mean", b.abscissae, b.mean, color),),
        (Band(b.abscissae, lo, hi, color),),
    )


def attribution_whiskers(
    mca: McAttribution, title: str = "Monte-Carlo attribution"
) -> WhiskerChart:
    bars = tuple(
        WhiskerBar(name, float(mca.mean[i]), float(mca.std[i]), color_for(i))
        for i, name in enumerate(mca.feature_names)
    )
    return WhiskerChart(title, "Shapley contribution", bars)


# ----------------------------------------------------------------------
# SVG assembly
# ----------------------------------------------------------------------

WIDTH, HEIGHT = 640, 420      # canvas of every chart, in SVG user units
MARGIN = {"left": 64, "right": 24, "top": 36, "bottom": 46}
BAND_OPACITY = 0.25
LEGEND_LINE = 16
FONT = "ui-sans-serif, sans-serif"


def _padded(lo: float, hi: float, frac: float = 0.05):
    if hi <= lo:
        pad = max(abs(lo), 1.0) * frac
        return lo - pad, hi + pad
    pad = (hi - lo) * frac
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _svg_root() -> ET.Element:
    return ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
        },
    )


def _text(parent, x, y, content, size=11, anchor="middle", **extra):
    attrs = {
        "x": _fmt(x),
        "y": _fmt(y),
        "font-family": FONT,
        "font-size": str(size),
        "text-anchor": anchor,
        "fill": "#222222",
    }
    attrs.update(extra)
    el = ET.SubElement(parent, "text", attrs)
    el.text = content
    return el


def _line(parent, x1, y1, x2, y2, stroke="#222222", width=1.0, dash=None):
    attrs = {
        "x1": _fmt(x1), "y1": _fmt(y1), "x2": _fmt(x2), "y2": _fmt(y2),
        "stroke": stroke, "stroke-width": str(width),
    }
    if dash:
        attrs["stroke-dasharray"] = dash
    ET.SubElement(parent, "line", attrs)


class _Frame:
    """Maps data coordinates into the plot rectangle of the SVG canvas."""

    def __init__(self, x_range, y_range):
        self.px0 = MARGIN["left"]
        self.px1 = WIDTH - MARGIN["right"]
        self.py0 = MARGIN["top"]
        self.py1 = HEIGHT - MARGIN["bottom"]
        self.x_range = x_range
        self.y_range = y_range

    def x(self, v: float) -> float:
        lo, hi = self.x_range
        return self.px0 + (v - lo) / (hi - lo) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        lo, hi = self.y_range
        return self.py1 - (v - lo) / (hi - lo) * (self.py1 - self.py0)


def _axes(root, frame, title, x_label, y_label):
    _line(root, frame.px0, frame.py1, frame.px1, frame.py1)
    _line(root, frame.px0, frame.py0, frame.px0, frame.py1)
    for t in np.linspace(*frame.x_range, 5):
        px = frame.x(t)
        _line(root, px, frame.py1, px, frame.py1 + 4)
        _text(root, px, frame.py1 + 16, _tick_label(t), size=10)
    _y_ticks(root, frame)
    _text(root, (frame.px0 + frame.px1) / 2, frame.py1 + 34, x_label, size=12)
    _y_label_and_title(root, frame, y_label, title)


def _y_ticks(root, frame):
    for t in np.linspace(*frame.y_range, 5):
        py = frame.y(t)
        _line(root, frame.px0 - 4, py, frame.px0, py)
        _text(root, frame.px0 - 8, py + 3, _tick_label(t), size=10, anchor="end")


def _y_label_and_title(root, frame, y_label, title):
    """The rotated y label, unless it is None, then the bold title."""
    if y_label is not None:
        mid = (frame.py0 + frame.py1) / 2
        _text(root, 16, mid, y_label, size=12, transform=f"rotate(-90 {_fmt(16)} {_fmt(mid)})")
    _text(root, (frame.px0 + frame.px1) / 2, MARGIN["top"] - 14, title, size=13,
          **{"font-weight": "bold"})


def _polyline_runs(x: np.ndarray, y: np.ndarray):
    """Split a series at NaNs into runs of finite points."""
    run_x, run_y = [], []
    for xi, yi in zip(x, y):
        if np.isfinite(yi):
            run_x.append(xi)
            run_y.append(yi)
        elif run_x:
            yield run_x, run_y
            run_x, run_y = [], []
    if run_x:
        yield run_x, run_y


def _render_plot(doc: PlotDocument) -> str:
    x_range, y_range = doc.data_ranges()
    frame = _Frame(x_range, y_range)
    root = _svg_root()
    for band in doc.bands:
        pts = [(frame.x(x), frame.y(h)) for x, h in zip(band.x, band.hi)]
        pts += [(frame.x(x), frame.y(l)) for x, l in zip(band.x[::-1], band.lo[::-1])]
        ET.SubElement(root, "polygon", {
            "points": " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts),
            "fill": band.color,
            "fill-opacity": str(BAND_OPACITY),
            "stroke": "none",
        })
    for s in doc.series:
        for run_x, run_y in _polyline_runs(s.x, s.y):
            attrs = {
                "points": " ".join(
                    f"{_fmt(frame.x(xi))},{_fmt(frame.y(yi))}"
                    for xi, yi in zip(run_x, run_y)
                ),
                "fill": "none",
                "stroke": s.color,
                "stroke-width": "1.6",
            }
            if s.dash:
                attrs["stroke-dasharray"] = s.dash
            if len(run_x) == 1:
                # A lone point renders invisibly as a polyline; use a dot.
                ET.SubElement(root, "circle", {
                    "cx": _fmt(frame.x(run_x[0])), "cy": _fmt(frame.y(run_y[0])),
                    "r": "2.5", "fill": s.color,
                })
            else:
                ET.SubElement(root, "polyline", attrs)
    _axes(root, frame, doc.title, doc.x_label, doc.y_label)
    for k, s in enumerate(doc.series):
        ly = MARGIN["top"] + 6 + k * LEGEND_LINE
        lx = frame.px1 - 128
        _line(root, lx, ly, lx + 18, ly, stroke=s.color, width=2.0, dash=s.dash)
        _text(root, lx + 24, ly + 4, s.name, size=10, anchor="start")
    return ET.tostring(root, encoding="unicode")


def _render_columns(columns, title, y_label, pad, width, opacity, min_height) -> str:
    """Categorical chart: one column per slot, spanning y0..y1 in value units.

    Each column is (name, y0, y1, color, label, err).  A column with an err
    gets a ±err whisker on y1 and its label above the whisker; one without
    gets its label above the bar and a dashed connector at y1 across to the
    next column.  The value range always holds 0.
    """
    spans = [0.0]
    for _, y0, y1, _, _, err in columns:
        spans += [y0, y1] if err is None else [y0, y1 - err, y1 + err]
    lo, hi = _padded(min(spans), max(spans), pad)
    frame = _Frame((0.0, 1.0), (lo, hi))
    root = _svg_root()
    slot = (frame.px1 - frame.px0) / max(len(columns), 1)
    bar_w = slot * width
    for i, (name, y0, y1, color, label, err) in enumerate(columns):
        cx = frame.px0 + (i + 0.5) * slot
        top = frame.y(max(y0, y1))
        bottom = frame.y(min(y0, y1))
        ET.SubElement(root, "rect", {
            "x": _fmt(cx - bar_w / 2), "y": _fmt(top),
            "width": _fmt(bar_w), "height": _fmt(max(bottom - top, min_height)),
            "fill": color, "fill-opacity": str(opacity),
        })
        if err is None:
            _text(root, cx, top - 6, label, size=10)
            _text(root, cx, frame.py1 + 16, name, size=10)
            if i + 1 < len(columns):
                # Connector at the running level across to the next column.
                _line(root, cx + bar_w / 2, frame.y(y1),
                      cx + slot - bar_w / 2, frame.y(y1),
                      stroke="#aaaaaa", width=0.8, dash="3 2")
        else:
            _line(root, cx, frame.y(y1 - err), cx, frame.y(y1 + err),
                  stroke="#333333", width=1.4)
            cap = bar_w * 0.25
            for v in (y1 - err, y1 + err):
                _line(root, cx - cap, frame.y(v), cx + cap, frame.y(v),
                      stroke="#333333", width=1.4)
            _text(root, cx, frame.py1 + 16, name, size=10)
            _text(root, cx, frame.y(y1 + err) - 6, label, size=10)
    _line(root, frame.px0, frame.y(0.0), frame.px1, frame.y(0.0),
          stroke="#999999", width=0.8)
    _line(root, frame.px0, frame.py0, frame.px0, frame.py1)
    _y_ticks(root, frame)
    _y_label_and_title(root, frame, y_label, title)
    return ET.tostring(root, encoding="unicode")


def render_waterfall(wf: WaterfallSpec) -> str:
    """Waterfall chart: anchored baseline/total columns, floating φ bars."""
    columns = [(wf.baseline_label, 0.0, wf.baseline, ANCHOR_COLOR, percent(wf.baseline), None)]
    running = wf.baseline
    for name, v in wf.bars:
        color = POSITIVE_COLOR if v >= 0 else NEGATIVE_COLOR
        columns.append((name, running, running + v, color, f"{100.0 * v:+.2f}%", None))
        running += v
    columns.append((wf.total_label, 0.0, wf.total, ANCHOR_COLOR, percent(wf.total), None))
    return _render_columns(columns, f"{wf.total_label}: {percent(wf.total)}", None,
                           pad=0.12, width=0.6, opacity=0.9, min_height=0.5)


def write_svg(path: str | Path, svg: str) -> None:
    write_text(path, svg + "\n")
