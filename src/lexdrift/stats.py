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

All arithmetic is double precision, except the baseline projection, an
integer computed exactly; callers round only at rendering time.
This module is count-series arithmetic. It reads an index only in
:func:`series_from_index`, where a series name is a lexicon group, an entry,
or else a query, counted with :func:`lexdrift.index.eval_count`.
"""

from __future__ import annotations

import csv
import io
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import (
    CountsFormatError,
    DataError,
    QueryError,
    UndefinedChangeError,
    UnindexedTermError,
    long_integer,
    text_lines,
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
    rounded half away from zero. It is computed exactly, in integers, from
    the decimal that ``repr(float(growth))`` spells, the shortest one that
    reads back as the same float: a base of 50 at 0.13 is 56.5, so 57."""
    if n_base < 0:
        raise ValueError(f"base count must be non-negative, got {n_base}")
    if not -1.0 < growth < math.inf:
        raise ValueError(f"growth must be finite and greater than -1, got {growth}")
    # repr gives digits, an optional point and an optional exponent: "0.13", "1e-05".
    mantissa, _, exponent = repr(float(growth)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    num, scale = int(whole + fraction), int(exponent or 0) - len(fraction)
    num, den = (num * 10 ** scale, 1) if scale >= 0 else (num, 10 ** -scale)
    projected = (2 * n_base * (den + num) + den) // (2 * den)  # den + num > 0
    try:
        float(projected)
    except OverflowError:
        raise ValueError(f"growth {growth} projects the base count past the "
                         "float range") from None
    return projected


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
        for year, (matches, total) in points.items():
            try:
                where = f"series {series_id!r} year {year}"
            except ValueError:  # a year too long to print
                raise DataError(f"series {series_id!r}: year is an {long_integer()}") from None
            # As import_counts reads them: exact ints, for the shares computed in floats.
            if {type(year), type(matches), type(total)} != {int}:
                raise DataError(f"{where}: year, matches and total must be integers")
            try:
                float(year), float(matches), float(total)
            except OverflowError:
                raise DataError(f"{where}: year, matches and total must fit a float") from None
            if total <= 0:
                raise DataError(f"{where}: total must be positive")
            if not 0 <= matches <= total:
                raise DataError(f"{where}: matches {matches} outside 0..{total}")
        self._init(series_id, dict(sorted(points.items())))

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


def import_counts(source) -> dict[str, CountSeries]:
    """Read a count table (CSV with header ``series,year,matches,total``)
    into one CountSeries per series id, keeping first-appearance order.
    Schema problems are reported with their line number."""
    lines = text_lines(source, newline="")
    try:
        reader = csv.reader(_checked_lines(lines))
        try:
            header = next(reader)
        except StopIteration:
            raise CountsFormatError("count table is empty (missing header)", 1)
        if tuple(h.strip() for h in header) != COUNTS_HEADER:
            raise CountsFormatError(f"expected header {','.join(COUNTS_HEADER)!r}, "
                                    f"got {','.join(header)!r}", 1)
        acc: dict[str, dict[int, tuple[int, int]]] = {}
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise CountsFormatError(f"expected 4 fields, got {len(row)}", line)
            series_id = row[0].strip()
            if not series_id:
                raise CountsFormatError("series id must be non-empty", line)
            try:
                year, matches, total = (int(v) for v in row[1:])
            except ValueError:
                raise CountsFormatError("year, matches and total must be integers", line)
            try:
                float(year), float(matches), float(total)
            except OverflowError:
                # Shares, changes and charts are computed in floats.
                raise CountsFormatError("year, matches and total must fit a float",
                                        line) from None
            if matches > total:
                raise CountsFormatError(f"matches {matches} exceeds total {total}", line)
            if matches < 0 or total <= 0:
                raise CountsFormatError("matches must be >= 0 and total positive", line)
            pts = acc.setdefault(series_id, {})
            if year in pts:
                raise CountsFormatError(f"duplicate entry for ({series_id}, {year})", line)
            pts[year] = (matches, total)
        return {sid: CountSeries(sid, pts) for sid, pts in acc.items()}
    except csv.Error as exc:  # e.g. an oversized field
        raise CountsFormatError(str(exc), reader.line_num) from None
    finally:
        lines.close()


def _checked_lines(lines: Iterable[tuple[str, bool]]) -> Iterator[str]:
    """The text of *lines*, from :func:`text_lines`, each checked before the
    csv reader sees it, the same way on every Python: first for a byte that
    is not UTF-8, then for a NUL, which csv refuses before 3.11 and keeps
    from then on."""
    for line, (text, _) in enumerate(lines, start=1):
        problem = None
        if isinstance(text, str):  # csv refuses any other line itself
            if not text.isascii():
                problem = undecodable(text)
            if problem is None and "\0" in text:
                problem = "line contains NUL"
        if problem is not None:
            raise CountsFormatError(problem, line)
        yield text


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
    """Per-year counts for a named series from an index. A lexicon group
    name (matched ignoring case) means ``any(group)``, and a name that
    ``Lexicon.resolve`` maps to one entry means that entry. Any other name
    is a query, such as ``atleast(2, strong)``, parsed against the index's
    lexicon; a QueryError says that the name was read as a query and what
    the parser or ``eval_count`` found wrong with it."""
    from .index import eval_count
    from .query import AtLeastK, Term, parse_query

    group = index.lexicon.groups().get(name.casefold())
    terms = index.lexicon.resolve(name)
    try:
        if group is not None:
            query: Query = AtLeastK(1, group)
        elif len(terms) == 1:
            query = Term(terms[0])
        else:
            query = parse_query(name, index.lexicon)
        points = {
            year: (eval_count(index, query, year), index.total(year))
            for year in index.years
        }
    except QueryError as exc:  # only a name read as a query can fail here
        # No advice to scan a corpus: a series is counted from the index alone.
        problem = (f"term {exc.term!r} is not in the index vocabulary"
                   if isinstance(exc, UnindexedTermError) else exc)
        raise QueryError(f"series {name!r} is no group or entry of the index; "
                         f"as a query: {problem}") from None
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
    designated base/target year pair (default: first and last in range).
    Each year's figures are the whole series', whatever the range."""
    years = series.slice(from_year, to_year).years
    base = base_year if base_year is not None else years[0]
    target = target_year if target_year is not None else years[-1]
    report = DriftReport(
        series_id=series.series_id,
        years=years,
        matches=tuple(series.matches(y) for y in years),
        totals=tuple(series.total(y) for y in years),
        shares=tuple(series.share_at(y) for y in years),
        yoy=tuple(series.yoy_at(y) for y in years),
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
