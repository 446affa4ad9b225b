from __future__ import annotations

import pytest

from lexdrift import DataError, PlotSpec, render_line_chart
from lexdrift.stats import CountSeries


def _flat(sid: str, value: int) -> CountSeries:
    return CountSeries(sid, {y: (value, 100) for y in range(2019, 2024)})


def _series_map() -> dict[str, CountSeries]:
    return {
        "alpha": _flat("alpha", 10),
        "beta": CountSeries(
            "beta", {y: ((y - 2018) * 5, 100) for y in range(2019, 2024)}
        ),
    }


def test_two_series_five_year_chart():
    spec = PlotSpec(series=("alpha", "beta"))
    markup = render_line_chart(spec, _series_map())
    assert markup.count("<polyline") == 2
    assert markup.count('class="x-tick"') == 5
    assert all(str(y) in markup for y in range(2019, 2024))
    assert markup.count('class="legend-label"') == 2
    assert "alpha" in markup and "beta" in markup


def test_byte_identical_reruns():
    spec = PlotSpec(series=("alpha", "beta"), metric="count")
    first = render_line_chart(spec, _series_map())
    second = render_line_chart(spec, _series_map())
    assert first.encode() == second.encode()


def test_yoy_gap_splits_line():
    series = CountSeries("gappy", {
        2019: (10, 100),
        2020: (12, 100),
        2021: (0, 100),   # drops TO zero: still a defined -100% change
        2022: (10, 100),  # climbs FROM zero: undefined, rendered as a gap
        2023: (12, 100),
    })
    spec = PlotSpec(series=("gappy",), metric="yoy")
    markup = render_line_chart(spec, {"gappy": series})
    # defined at 2020-2021 (one segment) and 2023 (isolated dot)
    assert markup.count("<polyline") == 1
    assert markup.count("series-dot") == 3


def test_share_axis_labels_in_percent():
    spec = PlotSpec(series=("alpha",))
    markup = render_line_chart(spec, _series_map())
    assert "%</text>" in markup


def test_year_window():
    spec = PlotSpec(series=("beta",), from_year=2021, to_year=2023)
    markup = render_line_chart(spec, _series_map())
    assert markup.count('class="x-tick"') == 3
    assert "2019" not in markup


def test_empty_series_selection_rejected():
    with pytest.raises(DataError):
        PlotSpec(series=())


def test_unknown_metric_rejected():
    with pytest.raises(DataError, match="metric"):
        PlotSpec(series=("a",), metric="volume")


def test_missing_series_rejected():
    spec = PlotSpec(series=("ghost",))
    with pytest.raises(DataError, match="ghost"):
        render_line_chart(spec, _series_map())


def test_all_gaps_rejected():
    lonely = CountSeries("one", {2023: (5, 10)})
    spec = PlotSpec(series=("one",), metric="yoy")
    with pytest.raises(DataError, match="undefined"):
        render_line_chart(spec, {"one": lonely})


def test_dimensions_below_the_minimum_rejected():
    with pytest.raises(DataError, match="200x150"):
        PlotSpec(series=("alpha",), width=199)


def test_height_too_small_for_the_legend_rejected():
    spec = PlotSpec(series=("alpha", "beta"), height=150)
    with pytest.raises(DataError, match="legend"):
        render_line_chart(spec, _series_map())


def test_series_names_escaped():
    name = "a<b&c"
    series = CountSeries(name, {2022: (1, 10), 2023: (2, 10)})
    spec = PlotSpec(series=(name,), metric="count")
    markup = render_line_chart(spec, {name: series})
    assert "a&lt;b&amp;c" in markup
    assert "<b&c" not in markup


def test_single_year_count_plot():
    lonely = CountSeries("one", {2023: (5, 10)})
    spec = PlotSpec(series=("one",), metric="count")
    markup = render_line_chart(spec, {"one": lonely})
    assert markup.count("series-dot") == 1
