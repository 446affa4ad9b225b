"""Drift statistics over yearly (matches, total) count series.

The primitives are deliberately small and explicit:

* share            = matches / total
* yoy_change       = share_curr / share_prev - 1
* count_increase   = n_curr / n_prev - 1
* share_increase   = (n_curr / N_curr) / (n_prev / N_prev) - 1
* baseline projection = round-half-away-from-zero of n_base * (1 + g)
* excess           = actual - projected (negative excess is reported, not
                     clamped, so declining markers surface too)

count_increase and share_increase coincide only when the yearly totals are
equal; implied_total_ratio reconstructs the totals ratio a share-based figure
implies, which is useful when reconciling externally reported increases
computed under the two different conventions.

All arithmetic is double precision; callers round only at rendering time.
This module is count-series arithmetic: it reads an index only through
:func:`lexdrift.index.eval_count`, in :func:`series_from_index`.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .errors import (
    CountsFormatError,
    DataError,
    UndefinedChangeError,
    undecodable,
)
from .value import Value

# The count-table path (import, drift, excess) needs no index or query code,
# so those modules are imported by the functions that read an index.
if TYPE_CHECKING:
    from .index import YearTermIndex
    from .query import Query

COUNTS_HEADER = ("series", "year", "matches", "total")


def share(matches: int, total: int) -> float:
    """Fraction of documents containing the term."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if matches < 0 or matches > total:
        raise ValueError(f"matches {matches} outside 0..{total}")
    return matches / total


def yoy_change(share_curr: float, share_prev: float) -> float:
    """Relative year-on-year change of a share (0.0200 -> 0.0210 is +0.05)."""
    if share_prev <= 0:
        raise UndefinedChangeError(
            f"previous share is {share_prev}; change is undefined (series gap)"
        )
    return share_curr / share_prev - 1.0


def count_increase(n_prev: int, n_curr: int) -> float:
    """Relative growth of raw match counts between two years."""
    if n_prev <= 0:
        raise UndefinedChangeError(
            f"previous count is {n_prev}; increase is undefined"
        )
    return n_curr / n_prev - 1.0


def share_increase(n_prev: int, total_prev: int, n_curr: int, total_curr: int) -> float:
    """Relative growth of prevalence shares between two years."""
    if total_prev <= 0 or total_curr <= 0:
        raise UndefinedChangeError("yearly totals must be positive")
    if n_prev <= 0:
        raise UndefinedChangeError(
            f"previous count is {n_prev}; increase is undefined"
        )
    return (n_curr / total_curr) / (n_prev / total_prev) - 1.0


def implied_total_ratio(count_inc: float, share_inc: float) -> float:
    """The totals ratio N_prev/N_curr under which a count-based and a
    share-based increase describe the same data."""
    if count_inc <= -1.0:
        raise ValueError("count increase must be greater than -1")
    return (1.0 + share_inc) / (1.0 + count_inc)


def baseline_projection(n_base: int, growth: float) -> int:
    """Expected count after one year of organic growth *growth* (e.g. 0.05),
    rounded half away from zero."""
    if n_base < 0:
        raise ValueError(f"base count must be non-negative, got {n_base}")
    if not -1.0 < growth < math.inf:
        raise ValueError(f"growth must be finite and greater than -1, got {growth}")
    try:
        return math.floor(n_base * (1.0 + growth) + 0.5)
    except OverflowError:
        raise ValueError(f"growth {growth} projects the base count past the "
                         "float range") from None


def excess(actual: int, expected: int, total: int | None = None) -> tuple[int, float | None]:
    """Documents above the projected baseline; optionally also as a fraction
    of *total*. Negative excess is legal and returned as-is."""
    diff = actual - expected
    if total is None:
        return diff, None
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    return diff, diff / total


class CountSeries(Value):
    """Yearly (matches, total) points for one named series."""

    __slots__ = ("series_id", "points")
    __hash__ = None  # points is a dict

    def __init__(self, series_id: str, points: Mapping[int, tuple[int, int]]):
        if not series_id:
            raise DataError("series id must be non-empty")
        items = sorted(points.items())
        for year, (matches, total) in items:
            if total <= 0:
                raise DataError(
                    f"series {series_id!r} year {year}: total must be positive"
                )
            if not 0 <= matches <= total:
                raise DataError(
                    f"series {series_id!r} year {year}: matches {matches} "
                    f"outside 0..{total}"
                )
        self._init(series_id, dict(items))

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(self.points)

    def matches(self, year: int) -> int:
        return self._point(year)[0]

    def total(self, year: int) -> int:
        return self._point(year)[1]

    def _point(self, year: int) -> tuple[int, int]:
        try:
            return self.points[year]
        except KeyError:
            raise DataError(f"series {self.series_id!r} has no year {year}") from None

    def share_at(self, year: int) -> float:
        matches, total = self._point(year)
        return share(matches, total)

    def yoy_at(self, year: int) -> float | None:
        """Share change against the preceding calendar year; None when the
        previous year is absent or has zero share (a gap, not a zero)."""
        prev = year - 1
        if prev not in self.points or year not in self.points:
            return None
        prev_share = self.share_at(prev)
        if prev_share == 0:
            return None
        return yoy_change(self.share_at(year), prev_share)

    def slice(self, from_year: int | None = None, to_year: int | None = None) -> "CountSeries":
        pts = {
            y: p for y, p in self.points.items()
            if (from_year is None or y >= from_year)
            and (to_year is None or y <= to_year)
        }
        if not pts:
            bounds = [f"{word} {year}" for word, year in
                      (("from", from_year), ("to", to_year)) if year is not None]
            raise DataError(f"series {self.series_id!r}: no years "
                            f"{' '.join(bounds) or 'at all'}")
        return CountSeries(self.series_id, pts)


def max_historical_change(series: CountSeries, from_year: int | None = None,
                          to_year: int | None = None, *,
                          absolute: bool = False) -> tuple[float, int]:
    """Largest year-on-year share change in the window, with the year it
    occurred. Signed maximum by default; ``absolute=True`` picks the change
    of greatest magnitude instead (still returned signed)."""
    window = series.slice(from_year, to_year)
    changes = [
        (c, y) for y in window.years
        if (c := window.yoy_at(y)) is not None
    ]
    if not changes:
        raise DataError(
            f"series {series.series_id!r}: need at least two consecutive years "
            "with positive shares"
        )
    key = (lambda cy: abs(cy[0])) if absolute else (lambda cy: cy[0])
    best = max(changes, key=key)
    return best


def import_counts(source) -> dict[str, CountSeries]:
    """Read a count table (CSV with header ``series,year,matches,total``)
    into one CountSeries per series id, keeping first-appearance order.
    Schema problems are reported with their line number."""
    stream = source
    close = False
    if isinstance(source, (str, Path)):
        # surrogateescape turns each undecodable byte into a lone surrogate,
        # so a bad line is reported by number instead of ending the read.
        stream = open(source, "r", encoding="utf-8", errors="surrogateescape",
                      newline="")
        close = True
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise CountsFormatError("count table is empty (missing header)", line=1)
        _check_utf8(header, 1)
        if tuple(h.strip() for h in header) != COUNTS_HEADER:
            raise CountsFormatError(
                f"line 1: expected header {','.join(COUNTS_HEADER)!r}, "
                f"got {','.join(header)!r}",
                line=1,
            )
        acc: dict[str, dict[int, tuple[int, int]]] = {}
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            _check_utf8(row, line)
            if len(row) != 4:
                raise CountsFormatError(
                    f"line {line}: expected 4 fields, got {len(row)}", line=line
                )
            series_id = row[0].strip()
            try:
                year, matches, total = (int(v) for v in row[1:])
            except ValueError:
                raise CountsFormatError(
                    f"line {line}: year, matches and total must be integers",
                    line=line,
                )
            try:
                float(year), float(matches), float(total)
            except OverflowError:
                # Shares, changes and charts are computed in floats.
                raise CountsFormatError(
                    f"line {line}: year, matches and total must fit a float",
                    line=line,
                ) from None
            if matches > total:
                raise CountsFormatError(
                    f"line {line}: matches {matches} exceeds total {total}",
                    line=line,
                )
            if matches < 0 or total <= 0:
                raise CountsFormatError(
                    f"line {line}: matches must be >= 0 and total positive",
                    line=line,
                )
            pts = acc.setdefault(series_id, {})
            if year in pts:
                raise CountsFormatError(
                    f"line {line}: duplicate entry for ({series_id}, {year})",
                    line=line,
                )
            pts[year] = (matches, total)
        return {sid: CountSeries(sid, pts) for sid, pts in acc.items()}
    except csv.Error as exc:  # e.g. an oversized field; a NUL before 3.11
        line = reader.line_num
        raise CountsFormatError(f"line {line}: {exc}", line=line) from None
    finally:
        if close:
            stream.close()


def _check_utf8(row: list[str], line: int) -> None:
    text = ",".join(row)
    problem = None if text.isascii() else undecodable(text)
    if problem is not None:
        raise CountsFormatError(f"line {line}: {problem}", line=line)


def export_counts(series_map: Mapping[str, CountSeries]) -> str:
    """Write series back to canonical CSV (years ascending within each
    series, ``\\n`` line endings). import -> export is the identity on its
    own output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COUNTS_HEADER)
    for series in series_map.values():
        for year in series.years:
            matches, total = series.points[year]
            writer.writerow([series.series_id, year, matches, total])
    return buf.getvalue()


def series_from_index(index: YearTermIndex, name: str) -> CountSeries:
    """Per-year counts for a lexicon group or single term from an index.
    A group name is matched ignoring case; a term name is the entry spelled
    exactly so, else the one entry equal to it ignoring case."""
    from .index import eval_count
    from .query import AnyOf, Term

    groups = index.lexicon.groups()
    key = name.casefold()
    terms = index.lexicon.resolve(name)
    if key in groups:
        query: Query = AnyOf(groups[key])
    elif len(terms) == 1:
        query = Term(terms[0])
    elif terms:
        raise DataError(
            f"ambiguous series {name!r}: lexicon entries "
            f"{', '.join(map(repr, terms))} differ only in case"
        )
    else:
        raise DataError(
            f"unknown series {name!r}: not a lexicon group or indexed term"
        )
    points = {
        year: (eval_count(index, query, year), index.total(year))
        for year in index.years
    }
    if not points:
        raise DataError("index contains no documents")
    return CountSeries(name, points)


class DriftReport(Value):
    """Everything a report renderer needs for one series; values are computed
    here once and rendered elsewhere without recomputation. The fields can
    be assigned, so a report is unhashable."""

    __slots__ = ("series_id", "years", "matches", "totals", "shares", "yoy",
                 "base_year", "target_year", "count_increase", "share_increase",
                 "growth", "expected", "actual", "excess", "excess_share",
                 "excess_denominator")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, series_id: str, years: tuple[int, ...], matches: tuple[int, ...],
                 totals: tuple[int, ...], shares: tuple[float, ...],
                 yoy: tuple[float | None, ...], base_year: int | None = None,
                 target_year: int | None = None, count_increase: float | None = None,
                 share_increase: float | None = None, growth: float | None = None,
                 expected: int | None = None, actual: int | None = None,
                 excess: int | None = None, excess_share: float | None = None,
                 excess_denominator: int | None = None):
        self._init(series_id, years, matches, totals, shares, yoy, base_year, target_year,
                   count_increase, share_increase, growth, expected, actual, excess,
                   excess_share, excess_denominator)


def drift_report(series: CountSeries, *, from_year: int | None = None,
                 to_year: int | None = None, base_year: int | None = None,
                 target_year: int | None = None) -> DriftReport:
    """Shares and year-on-year changes, plus both increase metrics between a
    designated base/target year pair (default: first and last in range)."""
    window = series.slice(from_year, to_year)
    years = window.years
    base = base_year if base_year is not None else years[0]
    target = target_year if target_year is not None else years[-1]
    report = DriftReport(
        series_id=series.series_id,
        years=years,
        matches=tuple(window.matches(y) for y in years),
        totals=tuple(window.total(y) for y in years),
        shares=tuple(window.share_at(y) for y in years),
        yoy=tuple(window.yoy_at(y) for y in years),
        base_year=base,
        target_year=target,
    )
    if base != target:
        n_prev, big_n_prev = series._point(base)
        n_curr, big_n_curr = series._point(target)
        try:
            report.count_increase = count_increase(n_prev, n_curr)
            report.share_increase = share_increase(
                n_prev, big_n_prev, n_curr, big_n_curr
            )
        except UndefinedChangeError:
            pass
    return report


def excess_report(series: CountSeries, *, base_year: int, target_year: int,
                  growth: float, total: int | None = None) -> DriftReport:
    """Baseline projection from the base year at *growth*, and the excess of
    the target year's actual count over it. The excess share denominator is
    *total* when given, else the series' own total at the target year."""
    report = drift_report(series, base_year=base_year, target_year=target_year)
    base_count = series.matches(base_year)
    actual = series.matches(target_year)
    expected = baseline_projection(base_count, growth)
    denominator = total if total is not None else series.total(target_year)
    diff, diff_share = excess(actual, expected, denominator)
    report.growth = growth
    report.expected = expected
    report.actual = actual
    report.excess = diff
    report.excess_share = diff_share
    report.excess_denominator = denominator
    return report
