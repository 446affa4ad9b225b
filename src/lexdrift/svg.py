"""Standalone SVG line charts for count series.

Hand-emitted markup, no charting dependency: the figure is a diagnostic.
Output is deterministic — same spec and data give byte-identical files —
which the test suite relies on. Years go on the x axis; the y axis carries
one of three metrics:

* ``count``  raw yearly matches
* ``share``  prevalence share, labelled in percent
* ``yoy``    year-on-year share change, labelled in signed percent; years
             where the change is undefined are rendered as gaps in the line
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .errors import DataError
from .stats import CountSeries
from .value import Value

METRICS = ("count", "share", "yoy")

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 48
_LEGEND_ROW = 18


def _escape(text: str) -> str:
    # What xml.sax.saxutils.escape does, without the urllib, http and email
    # imports that module would add to every cold command.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class PlotSpec(Value):
    """What to draw: which series, which metric, over which years."""

    __slots__ = ("series", "metric", "from_year", "to_year", "width", "height")

    def __init__(self, series: Iterable[str], metric: str = "share",
                 from_year: int | None = None, to_year: int | None = None,
                 width: int = 900, height: int = 480):
        series = tuple(series)
        if not series:
            raise DataError("plot needs at least one series")
        if metric not in METRICS:
            raise DataError(
                f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}"
            )
        if width < 200 or height < 150:
            raise DataError("plot dimensions must be at least 200x150")
        self._init(series, metric, from_year, to_year, width, height)


def _metric_points(series: CountSeries, metric: str) -> dict[int, float | None]:
    if metric == "count":
        return {y: float(series.matches(y)) for y in series.years}
    if metric == "share":
        return {y: series.share_at(y) for y in series.years}
    return {y: series.yoy_at(y) for y in series.years}


def _nice_step(span: float, target: int) -> float:
    """Smallest 1/2/2.5/5 x 10^k step giving at most *target* intervals;
    *span* is positive."""
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    step = _nice_step(hi - lo, target)
    first = math.floor(lo / step)
    last = math.ceil(hi / step)
    return [round(i * step, 10) for i in range(first, last + 1)]

def _num(x: float) -> str:
    """Fixed-notation coordinate, trimmed: stable across runs by design."""
    out = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if out == "-0" else out


def _label(value: float, metric: str) -> str:
    if metric == "count":
        if value == int(value):
            return str(int(value))
        return _num(value)
    pct = value * 100.0
    text = f"{pct:.10g}"
    return f"{text}%" if metric == "share" else f"{pct:+.10g}%"


def render_line_chart(spec: PlotSpec, series_map: Mapping[str, CountSeries]) -> str:
    """Render the chart as a complete SVG document (a ``str``)."""
    missing = [name for name in spec.series if name not in series_map]
    if missing:
        raise DataError(f"no data for series: {', '.join(missing)}")
    windows = [
        series_map[name].slice(spec.from_year, spec.to_year)
        for name in spec.series
    ]
    data = [_metric_points(w, spec.metric) for w in windows]

    years = sorted({y for pts in data for y in pts})
    values = [v for pts in data for v in pts.values() if v is not None]
    if not values:
        raise DataError(
            f"metric {spec.metric!r} is undefined everywhere in the selected range"
        )

    x0, x1 = _MARGIN_LEFT, spec.width - _MARGIN_RIGHT
    y0 = spec.height - _MARGIN_BOTTOM - _LEGEND_ROW * len(spec.series)
    y1 = _MARGIN_TOP
    if y0 - y1 < 60:
        raise DataError("plot height too small for the legend")

    if not all(map(math.isfinite, values)):
        raise DataError(f"metric {spec.metric!r} is not finite in every year")
    try:
        yticks = _ticks(min(values), max(values))
        scaled = math.isfinite(yticks[-1] - yticks[0])
    except OverflowError:
        scaled = False
    if not scaled:
        raise DataError(f"metric {spec.metric!r} is too large to scale an axis for")
    vlo, vhi = yticks[0], yticks[-1]
    ylo, yhi = float(years[0]), float(years[-1])
    if ylo == yhi:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def sx(year: float) -> float:
        return x0 + (year - ylo) / (yhi - ylo) * (x1 - x0)

    def sy(value: float) -> float:
        return y0 - (value - vlo) / (vhi - vlo) * (y0 - y1)

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}" '
        'font-family="sans-serif" font-size="12">'
    )
    out.append(
        f'<rect class="background" x="0" y="0" width="{spec.width}" '
        f'height="{spec.height}" fill="white"/>'
    )

    out.append('<g class="grid" stroke="#dddddd" stroke-width="1">')
    for tick in yticks:
        yy = _num(sy(tick))
        out.append(f'<line x1="{x0}" y1="{yy}" x2="{x1}" y2="{yy}"/>')
    out.append("</g>")

    out.append('<g class="axes" stroke="#333333" stroke-width="1">')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/>')
    out.append("</g>")

    out.append('<g class="x-labels" fill="#333333" text-anchor="middle">')
    for year in years:
        xx = _num(sx(year))
        out.append(
            f'<text class="x-tick" x="{xx}" y="{y0 + 18}">{year}</text>'
        )
    out.append("</g>")

    out.append('<g class="y-labels" fill="#333333" text-anchor="end">')
    for tick in yticks:
        yy = _num(sy(tick) + 4)
        out.append(
            f'<text class="y-tick" x="{x0 - 8}" y="{yy}">'
            f"{_escape(_label(tick, spec.metric))}</text>"
        )
    out.append("</g>")

    axis_title = {"count": "matches", "share": "share of documents",
                  "yoy": "year-on-year share change"}[spec.metric]
    out.append(
        f'<text class="axis-title" x="{x0}" y="{_MARGIN_TOP - 8}" '
        f'fill="#333333">{_escape(axis_title)}</text>'
    )

    for idx, (name, pts) in enumerate(zip(spec.series, data)):
        color = _PALETTE[idx % len(_PALETTE)]
        out.append(f'<g class="series" fill="none" stroke="{color}">')
        # split the line wherever the metric is undefined
        run: list[tuple[float, float]] = []
        runs: list[list[tuple[float, float]]] = []
        for year in sorted(pts):
            value = pts[year]
            if value is None:
                if run:
                    runs.append(run)
                    run = []
                continue
            run.append((sx(year), sy(value)))
        if run:
            runs.append(run)
        for seg in runs:
            if len(seg) == 1:
                continue
            coords = " ".join(f"{_num(px)},{_num(py)}" for px, py in seg)
            out.append(
                f'<polyline class="series-line" stroke-width="2" points="{coords}"/>'
            )
        for seg in runs:
            for px, py in seg:
                out.append(
                    f'<circle class="series-dot" cx="{_num(px)}" cy="{_num(py)}" '
                    f'r="3" fill="{color}" stroke="none"/>'
                )
        out.append("</g>")

    out.append('<g class="legend">')
    for idx, name in enumerate(spec.series):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = y0 + 36 + idx * _LEGEND_ROW
        out.append(
            f'<rect x="{x0}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        out.append(
            f'<text class="legend-label" x="{x0 + 18}" y="{ly + 1}" '
            f'fill="#333333">{_escape(name)}</text>'
        )
    out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
