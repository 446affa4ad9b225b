"""Document ingestion and whole-word tokenization.

Corpus files are UTF-8 JSON Lines, one object per line::

    {"id": "doc-1", "year": 2023, "text": "...", "categories": ["engineering"]}

``categories`` is optional. Tokenization is deliberately plain: maximal runs
of Unicode letters, case-folded, with single hyphens or apostrophes joining
two letter runs kept inside the token. No stemming, so "meticulous" and
"meticulously" stay distinct. A term counts at most once per document
(presence, not in-text frequency).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import CorpusFormatError, lone_surrogate, undecodable

DEFAULT_MIN_YEAR = 2000
DEFAULT_MAX_YEAR = 2100

# A token is letters optionally chained by single internal hyphens or
# apostrophes; digits and underscores terminate a token ("gpt-4" -> "gpt").
JOINERS = "'’-"
_LETTER = r"[^\W\d_]"
TOKEN_RE = re.compile(rf"{_LETTER}+(?:[{JOINERS}]{_LETTER}+)*")

# ASCII fast path: the translate tables keep letters (lowercased when
# folding) and the two ASCII joiners and turn everything else into a space;
# the regex then blanks every joiner that lacks a letter on either side, so
# each whitespace-separated chunk left is one whole TOKEN_RE match.
_ASCII_RAW = {
    c: chr(c) if chr(c).isalpha() or chr(c) in "'-" else " " for c in range(128)
}
_ASCII_FOLD = {c: ch.lower() for c, ch in _ASCII_RAW.items()}
_LOOSE_JOINER_RE = re.compile(r"(?<![A-Za-z])['-]|['-](?![A-Za-z])")


def _letter_runs(text: str) -> list[str]:
    # The regex class is "word chars minus decimal digits", which still
    # admits a few numeric characters (superscripts, vulgar fractions, Roman
    # numerals). Those are not letters and must split a token like a digit
    # does; ASCII tokens cannot contain them, so only non-ASCII tokens get a
    # second look.
    out: list[str] = []
    for tok in TOKEN_RE.findall(text):
        if tok.isascii() or all(ch.isalpha() or ch in JOINERS for ch in tok):
            out.append(tok)
        else:
            cleaned = "".join(
                ch if ch.isalpha() or ch in JOINERS else " " for ch in tok
            )
            out.extend(TOKEN_RE.findall(cleaned))
    return out


def _tokens(text: str, fold: bool) -> list[str]:
    if text.isascii():
        text = text.translate(_ASCII_FOLD if fold else _ASCII_RAW)
        if "'" in text or "-" in text:
            text = _LOOSE_JOINER_RE.sub(" ", text)
        return text.split()
    if fold:
        text = text.casefold()
    return [t.replace("’", "'") for t in _letter_runs(text)]


def tokenize(text: str) -> list[str]:
    """Case-folded whole-word tokens of *text*, in document order."""
    return _tokens(text, True)


def raw_tokens(text: str) -> list[str]:
    """Tokens without case folding, for case-sensitive term matching."""
    return _tokens(text, False)


class Document(NamedTuple):
    """One corpus record: a published document with full text."""

    id: str
    year: int
    text: str
    categories: tuple[str, ...] = ()


def _record_problem(
    record: object,
    seen: dict[str, int],
    min_year: int,
    max_year: int,
) -> str | None:
    if not isinstance(record, dict):
        return "record is not a JSON object"
    for key in ("id", "year", "text"):
        if key not in record:
            return f"missing field {key!r}"
    doc_id = record["id"]
    if not isinstance(doc_id, str) or not doc_id:
        return "field 'id' must be a non-empty string"
    if doc_id in seen:
        return f"duplicate id {doc_id!r} (first seen on line {seen[doc_id]})"
    year = record["year"]
    if isinstance(year, bool) or not isinstance(year, int):
        return f"field 'year' must be an integer, got {year!r}"
    if not min_year <= year <= max_year:
        return f"year {year} outside allowed range {min_year}-{max_year}"
    if not isinstance(record["text"], str):
        return "field 'text' must be a string"
    cats = record.get("categories", [])
    if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
        return "field 'categories' must be a list of strings"
    # Categories are printed, so they must hold no lone surrogate.
    problem = lone_surrogate("".join(cats))
    if problem is not None:
        return f"field 'categories' holds a {problem}"
    return None


def iter_corpus(
    source,
    *,
    on_error: str = "abort",
    min_year: int = DEFAULT_MIN_YEAR,
    max_year: int = DEFAULT_MAX_YEAR,
    errors: list[CorpusFormatError] | None = None,
) -> Iterator[Document]:
    """Stream Documents from a JSONL file path or an iterable of lines.

    ``on_error="abort"`` raises CorpusFormatError at the first malformed
    record; ``"skip"`` collects the error (into *errors*, if given) and
    continues. Errors carry 1-based line numbers. In a file read from a
    path, a line that is not valid UTF-8 is a malformed record.
    """
    if on_error not in ("abort", "skip"):
        raise ValueError(f"unknown error policy {on_error!r}")
    stream = source
    opened = False
    if isinstance(source, (str, Path)):
        # surrogateescape turns each undecodable byte into a lone surrogate,
        # so a bad line is reported by number instead of ending the read.
        stream = open(source, "r", encoding="utf-8", errors="surrogateescape")
        opened = True
    try:
        seen: dict[str, int] = {}
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            problem: str | None = None
            if opened and not line.isascii():
                problem = undecodable(line)
            if problem is None:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    problem = f"invalid JSON ({exc.msg})"
                except RecursionError:
                    problem = "invalid JSON (nested too deeply)"
                else:
                    problem = _record_problem(record, seen, min_year, max_year)
            if problem is not None:
                err = CorpusFormatError(f"line {lineno}: {problem}", line=lineno)
                if on_error == "abort":
                    raise err
                if errors is not None:
                    errors.append(err)
                continue
            seen[record["id"]] = lineno
            yield Document(
                id=record["id"],
                year=record["year"],
                text=record["text"],
                categories=tuple(record.get("categories", [])),
            )
    finally:
        if opened:
            stream.close()


def load_corpus(source, **kwargs) -> list[Document]:
    """Eager variant of :func:`iter_corpus`."""
    return list(iter_corpus(source, **kwargs))
