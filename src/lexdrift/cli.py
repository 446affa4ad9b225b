"""Command-line interface.

Subcommands:

* ``index``          build a term-presence index from a JSONL corpus
* ``drift``          per-series table of yearly shares and YoY changes
* ``excess``         baseline projection and excess above it
* ``query``          evaluate a boolean term query per year
* ``plot``           SVG line chart of a metric over years
* ``skew``           category mix of a query's matches in one year
* ``counts import``  validate a count CSV and rewrite it canonically
* ``counts export``  derive a count CSV from an index

Exit codes: 0 success; 1 data or validation error; 2 I/O or usage error.
Every number printed comes straight from the statistics layer — rendering
formats values but never recomputes them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import CorpusFormatError, DataError

# Each command imports the modules it runs when it runs, so a command that
# reads only the bundled counts never loads the corpus, lexicon, query or
# index code. These imports serve the annotations alone.
if TYPE_CHECKING:
    from .corpus import Document
    from .index import YearTermIndex
    from .query import Query
    from .stats import CountSeries, DriftReport

# Line numbers of skipped corpus records named in the stderr report.
_SKIPPED_SHOWN = 5


# --------------------------------------------------------------------------
# rendering helpers


def _pct(x: float | None, *, signed: bool = True, digits: int = 1) -> str:
    if x is None:
        return "-"
    sign = "+" if signed else ""
    return f"{x * 100:{sign}.{digits}f}%"


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_dumps(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=False, ensure_ascii=False) + "\n"


def _table(rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths))
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """*rows* under *header* as CSV: a float as its repr, None as an empty cell."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --------------------------------------------------------------------------
# input plumbing


def _load_lexicon_arg(path: str | None):
    from .lexicon import builtin_lexicon, load_lexicon

    if path is None or path == "builtin":
        return builtin_lexicon()
    return load_lexicon(path)


def _load_series(args: argparse.Namespace) -> dict[str, CountSeries]:
    """Series for the report commands, from --counts, --index, or the
    bundled fixture when neither is given."""
    from .stats import import_counts, series_from_index

    if args.index is not None:
        from .index import load_index

        index = load_index(args.index)
        names = args.series or sorted(index.lexicon.groups())
        return {name: series_from_index(index, name) for name in names}
    counts = args.counts
    if counts is None or counts == "builtin":
        from .bundled import bundled_counts_path

        counts = bundled_counts_path()
    series_map = import_counts(counts)
    if not args.series:
        return series_map
    picked = {}
    for name in args.series:
        if name not in series_map:
            raise DataError(
                f"unknown series {name!r}; file has: {', '.join(series_map)}"
            )
        picked[name] = series_map[name]
    return picked


def _documents(args: argparse.Namespace, **years: int) -> Iterator[Document]:
    """The documents of ``--corpus``; *years* are ``iter_corpus``'s
    ``min_year``/``max_year``. Under ``--on-error skip`` the skipped records
    are reported in one stderr line once the corpus has been read, before
    anything computed from it can fail."""
    from .corpus import iter_corpus

    skipped: list[CorpusFormatError] = []
    yield from iter_corpus(args.corpus, on_error=args.on_error, errors=skipped, **years)
    if skipped:
        shown = ", ".join(str(err.line) for err in skipped[:_SKIPPED_SHOWN])
        more = ", ..." if len(skipped) > _SKIPPED_SHOWN else ""
        print(f"skipped {len(skipped)} malformed records (lines {shown}{more})",
              file=sys.stderr)


def _within(year: int, first: int | None, last: int | None) -> bool:
    return (first is None or year >= first) and (last is None or year <= last)


def _index_and_query(args: argparse.Namespace, first: int | None,
                     last: int | None) -> tuple[YearTermIndex, Query]:
    """The index and the parsed query of ``query`` and ``skew``. The index
    is the ``--index`` file, or the ``--corpus`` documents of the years
    *first* to *last* (``None`` is open) indexed over the query's own terms.
    The scan accepts the default year range widened to take in *first* and
    *last*, so it reads every year an index built over them would hold."""
    from .corpus import DEFAULT_MAX_YEAR, DEFAULT_MIN_YEAR
    from .index import load_index, scan_index
    from .query import parse_query

    if args.index:
        index = load_index(args.index)
        return index, parse_query(args.query, index.lexicon)
    if not args.corpus:
        raise DataError("either --index or --corpus is required")
    lexicon = _load_lexicon_arg(args.lexicon)
    q = parse_query(args.query, lexicon)
    named = [year for year in (first, last) if year is not None]
    docs = _documents(args, min_year=min([DEFAULT_MIN_YEAR, *named]),
                      max_year=max([DEFAULT_MAX_YEAR, *named]))
    if named:
        docs = (doc for doc in docs if _within(doc.year, first, last))
    return scan_index(docs, lexicon, q), q


# --------------------------------------------------------------------------
# subcommands


def cmd_index(args: argparse.Namespace) -> int:
    from .corpus import DEFAULT_MAX_YEAR, DEFAULT_MIN_YEAR
    from .index import IndexBuilder, save_index

    lexicon = _load_lexicon_arg(args.lexicon)
    builder = IndexBuilder(
        lexicon,
        min_year=args.from_year if args.from_year is not None else DEFAULT_MIN_YEAR,
        max_year=args.to_year if args.to_year is not None else DEFAULT_MAX_YEAR,
    )
    builder.add_all(_documents(args, min_year=builder.min_year, max_year=builder.max_year))
    index = builder.finish()
    del builder  # its per-document lists, freed before the file is encoded
    save_index(index, args.out)
    print(f"indexed {index.doc_count} documents into {args.out}")
    for year in index.years:
        print(f"  {year}: {index.total(year)}")
    return 0


def _drift_reports(args: argparse.Namespace) -> list[DriftReport]:
    from .stats import drift_report

    series_map = _load_series(args)
    return [
        drift_report(
            series,
            from_year=args.from_year,
            to_year=args.to_year,
            base_year=args.base_year,
            target_year=args.target_year,
        )
        for series in series_map.values()
    ]


def _render_drift_text(reports: Sequence[DriftReport]) -> str:
    chunks = []
    for rep in reports:
        rows = [["year", "matches", "total", "share", "yoy"]]
        for i, year in enumerate(rep.years):
            rows.append([
                str(year),
                str(rep.matches[i]),
                str(rep.totals[i]),
                _pct(rep.shares[i], signed=False, digits=3),
                _pct(rep.yoy[i]),
            ])
        lines = [f"series: {rep.series_id}", _table(rows).rstrip("\n")]
        if rep.count_increase is not None:
            span = f"{rep.base_year}->{rep.target_year}"
            lines.append(
                f"count increase {span}: {_pct(rep.count_increase)}"
            )
            lines.append(
                f"share increase {span}: {_pct(rep.share_increase)}"
            )
        chunks.append("\n".join(lines) + "\n")
    return "\n".join(chunks)


def _drift_payload(rep: DriftReport) -> dict:
    return {
        "series": rep.series_id,
        "years": list(rep.years),
        "matches": list(rep.matches),
        "totals": list(rep.totals),
        "shares": list(rep.shares),
        "yoy": list(rep.yoy),
        "base_year": rep.base_year,
        "target_year": rep.target_year,
        "count_increase": rep.count_increase,
        "share_increase": rep.share_increase,
    }


def cmd_drift(args: argparse.Namespace) -> int:
    reports = _drift_reports(args)
    if args.format == "text":
        text = _render_drift_text(reports)
    elif args.format == "json":
        text = _json_dumps([_drift_payload(r) for r in reports])
    else:
        rows = [[rep.series_id, year, rep.matches[i], rep.totals[i], rep.shares[i],
                 rep.yoy[i], rep.count_increase, rep.share_increase]
                for rep in reports for i, year in enumerate(rep.years)]
        text = _csv_text(
            ["series", "year", "matches", "total", "share", "yoy",
             "count_increase", "share_increase"],
            rows,
        )
    _write_output(text, args.out)
    return 0


def cmd_excess(args: argparse.Namespace) -> int:
    from .stats import excess_report

    series_map = _load_series(args)
    reports = []
    for series in series_map.values():
        years = series.years
        base = args.base_year if args.base_year is not None else years[0]
        target = args.target_year if args.target_year is not None else years[-1]
        if base == target:
            raise DataError(
                f"series {series.series_id!r}: base and target year are both {base}"
            )
        try:
            reports.append(excess_report(
                series, base_year=base, target_year=target,
                growth=args.growth, total=args.total,
            ))
        except ValueError as exc:  # a growth or total the statistics reject
            raise DataError(str(exc)) from None
    if args.format == "text":
        chunks = []
        for rep in reports:
            share_note = (f" ({_pct(rep.excess_share, signed=False, digits=2)}"
                          f" of {rep.excess_denominator})")
            chunks.append(
                f"series: {rep.series_id}\n"
                f"base {rep.base_year}: {rep.matches[rep.years.index(rep.base_year)]}\n"
                f"growth allowance: {_pct(rep.growth)}\n"
                f"expected {rep.target_year}: {rep.expected}\n"
                f"actual {rep.target_year}: {rep.actual}\n"
                f"excess: {rep.excess}{share_note}\n"
            )
        text = "\n".join(chunks)
    elif args.format == "json":
        text = _json_dumps([
            {
                **_drift_payload(rep),
                "growth": rep.growth,
                "expected": rep.expected,
                "actual": rep.actual,
                "excess": rep.excess,
                "excess_share": rep.excess_share,
            }
            for rep in reports
        ])
    else:
        rows = [
            [rep.series_id, rep.base_year, rep.target_year, rep.growth,
             rep.expected, rep.actual, rep.excess, rep.excess_share]
            for rep in reports
        ]
        text = _csv_text(
            ["series", "base_year", "target_year", "growth", "expected",
             "actual", "excess", "excess_share"],
            rows,
        )
    _write_output(text, args.out)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .index import eval_count

    index, q = _index_and_query(args, args.from_year, args.to_year)
    counts = {year: (eval_count(index, q, year), index.total(year))
              for year in index.years if _within(year, args.from_year, args.to_year)}
    years = list(counts)
    if not years:
        raise DataError("no indexed years in the requested range")
    if args.format == "text":
        rows = [["year", "matches", "total"]]
        rows += [[str(y), str(m), str(n)] for y, (m, n) in counts.items()]
        text = f"query: {args.query}\n" + _table(rows)
    elif args.format == "json":
        text = _json_dumps({
            "query": args.query,
            "years": years,
            "matches": [m for m, _ in counts.values()],
            "totals": [n for _, n in counts.values()],
        })
    else:
        text = _csv_text(
            ["year", "matches", "total"],
            [[y, m, n] for y, (m, n) in counts.items()],
        )
    _write_output(text, args.out)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    from .svg import PlotSpec, render_line_chart

    series_map = _load_series(args)
    spec = PlotSpec(
        series=tuple(series_map),
        metric=args.metric,
        from_year=args.from_year,
        to_year=args.to_year,
        width=args.width,
        height=args.height,
    )
    markup = render_line_chart(spec, series_map)
    _write_output(markup, args.out)
    return 0


def cmd_counts_import(args: argparse.Namespace) -> int:
    from .stats import export_counts, import_counts

    series_map = import_counts(args.path)
    _write_output(export_counts(series_map), args.out)
    return 0


def cmd_counts_export(args: argparse.Namespace) -> int:
    from .stats import export_counts

    _write_output(export_counts(_load_series(args)), args.out)
    return 0


def cmd_skew(args: argparse.Namespace) -> int:
    from .index import category_skew

    skew = category_skew(*_index_and_query(args, args.year, args.year), args.year)
    if args.format == "json":
        text = _json_dumps({
            "year": skew.year,
            "matched": skew.matched,
            "total": skew.total,
            "categories": {
                cat: {"among_matches": m, "among_all": a}
                for cat, (m, a) in skew.rows.items()
            },
            "warning": skew.warning,
        })
    elif args.format == "csv":
        text = _csv_text(
            ["category", "among_matches", "among_all"],
            [[cat, m, a] for cat, (m, a) in skew.rows.items()],
        )
    else:
        rows = [["category", "among matches", "among all"]]
        rows += [
            [cat, _pct(m, signed=False), _pct(a, signed=False)]
            for cat, (m, a) in skew.rows.items()
        ]
        header = (
            f"year {skew.year}: {skew.matched} of {skew.total} documents match\n"
        )
        text = header + (_table(rows) if skew.rows else "")
        if skew.warning:
            text += f"warning: {skew.warning}\n"
    _write_output(text, args.out)
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_year_range(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--from", dest="from_year", type=int, metavar="YEAR",
                        help="first year to include")
    parser.add_argument("--to", dest="to_year", type=int, metavar="YEAR",
                        help="last year to include")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")


def _add_series_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("series", nargs="*", metavar="SERIES",
                        help="series ids (counts file), or group or term names "
                             "or queries (index); default: every series in the file")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--counts", metavar="PATH",
                        help="count CSV to read ('builtin' or omitted: the "
                             "bundled fixture)")
    source.add_argument("--index", metavar="PATH",
                        help="take counts from this index file instead")


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicon", metavar="PATH",
                        help="lexicon JSON (default: builtin)")
    parser.add_argument("--on-error", choices=("abort", "skip"), default="abort",
                        help="bad corpus records: stop or skip (default: abort)")


def _add_query_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("query", metavar="QUERY")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--index", metavar="PATH", help="index file to query")
    source.add_argument("--corpus", metavar="PATH",
                        help="scan a corpus, matched against --lexicon, instead "
                             "of using an index")
    _add_corpus_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexdrift",
        description="Track marker-word prevalence drift across a yearly corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an index from a JSONL corpus")
    p.add_argument("--corpus", required=True, metavar="PATH")
    _add_corpus_options(p)
    p.add_argument("--out", required=True, metavar="PATH",
                   help="index file to write")
    _add_year_range(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("drift", help="yearly shares and YoY changes per series")
    _add_series_source(p)
    _add_year_range(p)
    p.add_argument("--base-year", type=int, metavar="YEAR",
                   help="base year for the increase figures (default: first)")
    p.add_argument("--target-year", type=int, metavar="YEAR",
                   help="target year for the increase figures (default: last)")
    _add_output(p)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("excess", help="baseline projection and excess count")
    _add_series_source(p)
    p.add_argument("--base-year", type=int, metavar="YEAR",
                   help="projection base year (default: first in series)")
    p.add_argument("--target-year", type=int, metavar="YEAR",
                   help="year to compare against the projection (default: last)")
    p.add_argument("--growth", type=float, default=0.05, metavar="G",
                   help="organic growth allowance (default: 0.05)")
    p.add_argument("--total", type=int, metavar="N",
                   help="denominator for the excess share (default: the "
                        "series' own total at the target year)")
    _add_output(p)
    p.set_defaults(func=cmd_excess)

    p = sub.add_parser("query", help="evaluate a boolean query per year")
    _add_query_source(p)
    _add_year_range(p)
    _add_output(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("plot", help="render an SVG line chart")
    _add_series_source(p)
    p.add_argument("--metric", choices=("share", "yoy", "count"),
                   default="share")
    _add_year_range(p)
    p.add_argument("--width", type=int, default=900)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--out", metavar="PATH",
                   help="SVG file to write (default: stdout)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("skew", help="category mix of matches vs all documents")
    _add_query_source(p)
    p.add_argument("--year", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("counts", help="count-table utilities")
    csub = p.add_subparsers(dest="counts_command", required=True)

    pc = csub.add_parser("import", help="validate a CSV and write canonical form")
    pc.add_argument("path", metavar="PATH")
    pc.add_argument("--out", metavar="PATH")
    pc.set_defaults(func=cmd_counts_import)

    pc = csub.add_parser("export", help="derive a count CSV from an index")
    pc.add_argument("series", nargs="*", metavar="SERIES",
                    help="group or term names, or queries (default: all "
                         "lexicon groups)")
    pc.add_argument("--index", required=True, metavar="PATH")
    pc.add_argument("--out", metavar="PATH")
    pc.set_defaults(func=cmd_counts_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
