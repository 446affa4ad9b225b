"""lexdrift: lexical drift statistics over yearly document corpora.

Measures how often marker words appear across the years of a corpus
(document frequency, not occurrence counts), normalizes the counts into
prevalence shares, and reports year-on-year drift, baseline projections and
excess counts. Ships a builtin marker lexicon, a boolean query language over
it, a compact persistent index, CSV/JSON reports and SVG trend charts.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name, and so ``__all__``. A
# submodule is imported the first time one of its names is read (PEP 562
# module __getattr__), so ``import lexdrift`` is cheap and a command loads
# only the modules it runs.
_MODULE_OF = {
    name: module
    for module, names in {
        "bundled": "bundled_corpus_path bundled_counts_path",
        "corpus": "Document iter_corpus load_corpus tokenize",
        "errors": "CorpusFormatError CountsFormatError DataError IndexBuildError "
                  "IndexChecksumError IndexFileError IndexVersionError LexiconError "
                  "QueryError QuerySyntaxError UndefinedChangeError "
                  "UnindexedTermError UnknownNameError UnknownYearError",
        "index": "CategorySkew IndexBuilder YearTermIndex build_index category_skew "
                 "eval_count eval_count_scan load_index save_index",
        "lexicon": "Lexicon TermEntry builtin_lexicon load_lexicon save_lexicon",
        "query": "AtLeastK And Or Query Term parse_query",
        "stats": "CountSeries DriftReport baseline_projection count_increase "
                 "drift_report excess excess_report export_counts implied_total_ratio "
                 "import_counts series_from_index share "
                 "share_increase yoy_change",
        "svg": "PlotSpec render_line_chart",
    }.items()
    for name in names.split()
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
