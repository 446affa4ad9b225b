"""Immutable per-year index of lexicon-term evidence.

Each document is reduced at build time to a bitset over the lexicon
vocabulary (phrases included as ordinary entries). On a year's first query
the index turns that year's bitsets into posting columns: one big integer
per vocabulary entry, whose bit *i* is set when document *i* of the year
holds the entry. A boolean or at-least-k query, or a term's document
frequency, then costs a few big-integer operations per query node and a
popcount, not one test per document; none of them is tabulated ahead of
time. Builds are deterministic: document order and any partitioning of the
corpus across builders produce identical indexes. The finished index is
immutable and safe for concurrent readers.

A corpus scan is the same build over the query's own terms instead of the
lexicon: one matcher masks every document, and one evaluator answers the
query from the posting columns, so a scan also counts terms outside the
lexicon.

Index files are a single binary container: magic, format version, payload
length and SHA-256 checksum, then a zlib-compressed canonical JSON payload.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from functools import reduce
from itertools import chain, repeat
from operator import and_, or_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import Document, DEFAULT_MAX_YEAR, DEFAULT_MIN_YEAR, raw_tokens, tokenize
from .errors import (
    IndexBuildError,
    IndexChecksumError,
    IndexFileError,
    IndexVersionError,
    UnindexedTermError,
    UnknownYearError,
)
from .lexicon import Lexicon, lexicon_from_dict, lexicon_to_dict
from .query import And, AnyOf, AtLeastK, Or, Phrase, Query, Term, query_vocabulary

_MAGIC = b"LXDX"
_VERSION = 1
_HEADER = struct.Struct("<4sHQ32s")

# One mark per document: (doc_id, year, vocabulary bitmask, categories).
Mark = tuple[str, int, int, tuple[str, ...]]


class YearTermIndex:
    """Yearly totals and per-document term bitsets. Queries read each
    year's posting columns, built from the bitsets on the year's first
    query, so a query costs a few big-integer operations per node rather
    than a test per document."""

    def __init__(self, lexicon: Lexicon, min_year: int, max_year: int,
                 marks: Iterable[Mark]):
        self._lexicon = lexicon
        self._min_year = min_year
        self._max_year = max_year
        self._terms = lexicon.terms()
        self._bit = {t: i for i, t in enumerate(self._terms)}

        per_year: dict[int, list[Mark]] = {}
        for mark in marks:
            per_year.setdefault(mark[1], []).append(mark)
        self._years = tuple(sorted(per_year))
        self._ids: dict[int, tuple[str, ...]] = {}
        self._masks: dict[int, tuple[int, ...]] = {}
        self._cats: dict[int, tuple[tuple[str, ...], ...]] = {}
        self._totals: dict[int, int] = {}
        # year -> one posting column per vocabulary bit, filled by _columns.
        # Readers that race on a year's first query both build the same
        # tuple, and either may be stored.
        self._cols: dict[int, tuple[int, ...]] = {}
        for year in self._years:
            rows = sorted(per_year[year])
            self._ids[year] = tuple(r[0] for r in rows)
            self._masks[year] = tuple(r[2] for r in rows)
            self._cats[year] = tuple(r[3] for r in rows)
            self._totals[year] = len(rows)

    @property
    def lexicon(self) -> Lexicon:
        return self._lexicon

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self._terms

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    @property
    def year_range(self) -> tuple[int, int]:
        return self._min_year, self._max_year

    @property
    def doc_count(self) -> int:
        return sum(self._totals.values())

    def total(self, year: int) -> int:
        return self._totals.get(year, 0)

    def term_bit(self, term: str) -> int:
        """Bit position of a vocabulary entry; accepts the entry verbatim or
        a name that exactly one entry equals ignoring case."""
        bit = self._bit.get(term)
        if bit is None:
            found = self._lexicon.resolve(term)
            if len(found) != 1:
                raise UnindexedTermError(term)
            bit = self._bit[found[0]]
        return bit

    def df(self, term: str, year: int) -> int:
        bit = self.term_bit(term)
        if year not in self._totals:
            return 0
        return self._columns(year)[bit].bit_count()

    def _columns(self, year: int) -> tuple[int, ...]:
        """Posting columns of *year*, an indexed year."""
        cols = self._cols.get(year)
        if cols is None:
            cols = self._cols[year] = _columns(self._masks[year], len(self._terms))
        return cols

    def doc_marks(self) -> Iterator[Mark]:
        """All (doc_id, year, bitmask, categories) rows, ordered by id
        within each year."""
        for year in self._years:
            yield from zip(
                self._ids[year],
                (year,) * self._totals[year],
                self._masks[year],
                self._cats[year],
            )


def _columns(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Posting columns of one year's document masks: for each of the
    *width* vocabulary bits, an integer whose bit *i* is set when document
    *i* holds it."""
    # Each mask as a fixed-width binary string, all documents in one
    # string; reversed, the string holds the last document first and
    # vocabulary bit j of every document at positions j, j+width, ...
    bits = "".join(map(format, masks, repeat(f"0{width}b")))[::-1]
    return tuple(int(bits[j::width], 2) for j in range(width))


class _CompiledVocab:
    """Vocabulary entries, given as (term, case-sensitive) pairs, prepared
    for fast per-document matching: bit *j* of a document's mask is set
    when the document holds entry *j*. A case-sensitive entry matches the
    unfolded tokens, any other the folded ones; an entry with no tokens
    never matches."""

    def __init__(self, entries: Iterable[tuple[str, bool]]):
        self.fold_single: dict[str, int] = {}
        self.fold_phrases: list[tuple[str, list[str], int]] = []
        self.raw_single: dict[str, int] = {}
        self.raw_phrases: list[tuple[str, list[str], int]] = []
        for bit, (term, case_sensitive) in enumerate(entries):
            mask = 1 << bit
            if case_sensitive:
                toks, single, phrases = raw_tokens(term), self.raw_single, self.raw_phrases
            else:
                toks, single, phrases = tokenize(term), self.fold_single, self.fold_phrases
            if len(toks) == 1:
                # Entries that differ only in case share a token: OR, so
                # each of them gets its bit.
                single[toks[0]] = single.get(toks[0], 0) | mask
            elif toks:
                phrases.append((toks[0], toks, mask))
        self.fold_single_set = frozenset(self.fold_single)
        self.raw_single_set = frozenset(self.raw_single)
        self.needs_raw = bool(self.raw_single or self.raw_phrases)

    def mask_for(self, text: str) -> int:
        seq = tokenize(text)
        uniq = set(seq)
        mask = 0
        for tok in self.fold_single_set & uniq:
            mask |= self.fold_single[tok]
        for first, toks, bm in self.fold_phrases:
            if first in uniq and _seq_contains(seq, toks):
                mask |= bm
        if self.needs_raw:
            rseq = raw_tokens(text)
            runiq = set(rseq)
            for tok in self.raw_single_set & runiq:
                mask |= self.raw_single[tok]
            for first, toks, bm in self.raw_phrases:
                if first in runiq and _seq_contains(rseq, toks):
                    mask |= bm
        return mask


def _seq_contains(seq: list[str], toks: list[str]) -> bool:
    first = toks[0]
    n = len(toks)
    last_start = len(seq) - n
    for i, tok in enumerate(seq):
        if i > last_start:
            return False
        if tok == first and seq[i : i + n] == toks:
            return True
    return False


class IndexBuilder:
    """Accumulates document marks; partitions built separately merge into
    the same index as a single sequential build."""

    def __init__(self, lexicon: Lexicon, *, min_year: int = DEFAULT_MIN_YEAR,
                 max_year: int = DEFAULT_MAX_YEAR):
        self.lexicon = lexicon
        self.min_year = min_year
        self.max_year = max_year
        self._vocab = _CompiledVocab((e.term, e.case_sensitive) for e in lexicon.entries)
        self._marks: list[Mark] = []
        self._seen: set[str] = set()

    def add(self, doc: Document) -> None:
        if not self.min_year <= doc.year <= self.max_year:
            raise IndexBuildError(
                f"document {doc.id!r}: year {doc.year} outside allowed range "
                f"{self.min_year}-{self.max_year}"
            )
        if doc.id in self._seen:
            raise IndexBuildError(f"duplicate document id {doc.id!r}")
        self._seen.add(doc.id)
        self._marks.append(
            (doc.id, doc.year, self._vocab.mask_for(doc.text), tuple(doc.categories))
        )

    def add_all(self, corpus: Iterable[Document]) -> None:
        for doc in corpus:
            self.add(doc)

    def merge(self, other: "IndexBuilder") -> None:
        if other.lexicon is not self.lexicon and other.lexicon != self.lexicon:
            raise IndexBuildError("cannot merge builders with different lexicons")
        overlap = self._seen & other._seen
        if overlap:
            raise IndexBuildError(
                f"duplicate document id {sorted(overlap)[0]!r} across partitions"
            )
        self._seen |= other._seen
        self._marks.extend(other._marks)

    def finish(self) -> YearTermIndex:
        return YearTermIndex(self.lexicon, self.min_year, self.max_year, self._marks)


def build_index(corpus: Iterable[Document], lexicon: Lexicon, *,
                min_year: int = DEFAULT_MIN_YEAR,
                max_year: int = DEFAULT_MAX_YEAR) -> YearTermIndex:
    """Index a document sequence against a lexicon vocabulary."""
    builder = IndexBuilder(lexicon, min_year=min_year, max_year=max_year)
    builder.add_all(corpus)
    return builder.finish()


# Unused in the package; bench/run.py's masks_tested counter patches it.
def compile_predicate(index: YearTermIndex, q: Query) -> Callable[[int], bool]:
    """Turn a query into a predicate over document bitmasks.

    Raises UnindexedTermError when the query mentions vocabulary the index
    does not carry (use :func:`eval_count_scan` for those).
    """
    if isinstance(q, Term):
        mask = 1 << index.term_bit(q.term)
        return lambda m: m & mask != 0
    if isinstance(q, Phrase):
        mask = 1 << index.term_bit(q.text)
        return lambda m: m & mask != 0
    if isinstance(q, AnyOf):
        mask = 0
        for member in q.members:
            mask |= 1 << index.term_bit(member)
        return lambda m: m & mask != 0
    if isinstance(q, AtLeastK):
        mask = 0
        for member in q.members:
            mask |= 1 << index.term_bit(member)
        k = q.k
        return lambda m: (m & mask).bit_count() >= k
    if isinstance(q, And):
        parts = [compile_predicate(index, p) for p in q.parts]
        return lambda m: all(p(m) for p in parts)
    if isinstance(q, Or):
        parts = [compile_predicate(index, p) for p in q.parts]
        return lambda m: any(p(m) for p in parts)
    raise TypeError(f"not a query node: {q!r}")


def eval_count(index: YearTermIndex, q: Query, year: int) -> int:
    """Exact number of documents in *year* satisfying *q* (presence
    semantics, each document counted once)."""
    return _year_posting(index, q, year)[0].bit_count()


def _year_posting(index: YearTermIndex, q: Query,
                  year: int) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """(the documents of *year* satisfying *q* as a posting column, the
    categories of each document of *year*)."""
    if year not in index._totals:
        raise UnknownYearError(f"year {year} is not in the index")
    return _posting(index.term_bit, index._columns(year), q), index._cats[year]


def _posting(bit: Callable[[str], int], cols: tuple[int, ...], q: Query) -> int:
    """The documents satisfying *q*, as a column over one year's documents;
    *bit* gives each term's column. Every term is looked up, so an unknown
    one raises wherever it sits."""
    if isinstance(q, Term):
        return cols[bit(q.term)]
    if isinstance(q, Phrase):
        return cols[bit(q.text)]
    if isinstance(q, AnyOf):
        return reduce(or_, [cols[bit(m)] for m in q.members])
    if isinstance(q, AtLeastK):
        # reach[j]: documents holding at least j + 1 of the members seen so far
        reach = [0] * q.k
        for member in q.members:
            col = cols[bit(member)]
            for j in range(q.k - 1, 0, -1):
                reach[j] |= reach[j - 1] & col
            reach[0] |= col
        return reach[-1]
    if isinstance(q, And):
        return reduce(and_, [_posting(bit, cols, p) for p in q.parts])
    if isinstance(q, Or):
        return reduce(or_, [_posting(bit, cols, p) for p in q.parts])
    raise TypeError(f"not a query node: {q!r}")


def _scan_postings(corpus: Iterable[Document], lexicon: Lexicon,
                   q: Query) -> dict[int, tuple[int, list[tuple[str, ...]]]]:
    """For each year of *corpus*, ascending, (the documents satisfying *q*
    as a posting column, the categories of each document), in corpus order:
    the corpus indexed over the query's own terms. A term is case-sensitive
    exactly when its lexicon entry is."""
    members = sorted(query_vocabulary(q))
    case_sensitive = {e.term: e.case_sensitive for e in lexicon.entries}
    vocab = _CompiledVocab((m, case_sensitive.get(m, False)) for m in members)
    masks: dict[int, list[int]] = {}
    cats: dict[int, list[tuple[str, ...]]] = {}
    for doc in corpus:
        masks.setdefault(doc.year, []).append(vocab.mask_for(doc.text))
        cats.setdefault(doc.year, []).append(doc.categories)
    bit = {m: j for j, m in enumerate(members)}.__getitem__
    return {
        year: (_posting(bit, _columns(masks[year], len(members)), q), cats[year])
        for year in sorted(masks)
    }


def scan_counts(corpus: Iterable[Document], lexicon: Lexicon,
                q: Query) -> dict[int, tuple[int, int]]:
    """(documents satisfying *q*, all documents) for each year of *corpus*,
    from one pass that indexes the corpus over the query's own terms, so it
    counts terms outside the lexicon too."""
    return {year: (posting.bit_count(), len(cats))
            for year, (posting, cats) in _scan_postings(corpus, lexicon, q).items()}


def eval_count_scan(corpus: Iterable[Document], lexicon: Lexicon, q: Query,
                    year: int) -> int:
    """:func:`eval_count` by one pass over *corpus*, indexed over the
    query's own terms; counts terms outside the lexicon too, and equals
    eval_count on indexed queries."""
    counts = scan_counts((doc for doc in corpus if doc.year == year), lexicon, q)
    return counts[year][0] if counts else 0


def save_index(index: YearTermIndex, path) -> None:
    payload = {
        "format": "lexdrift.index",
        "lexicon": lexicon_to_dict(index.lexicon),
        "min_year": index.year_range[0],
        "max_year": index.year_range[1],
        "docs": [[i, y, m, list(c)] for i, y, m, c in index.doc_marks()],
    }
    blob = zlib.compress(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8"), 9
    )
    header = _HEADER.pack(_MAGIC, _VERSION, len(blob), hashlib.sha256(blob).digest())
    Path(path).write_bytes(header + blob)


def load_index(path) -> YearTermIndex:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise IndexFileError(f"{path}: not an index file")
    magic, version, length, digest = _HEADER.unpack(data[: _HEADER.size])
    if version != _VERSION:
        raise IndexVersionError(
            f"{path}: unsupported index version {version} (supported: {_VERSION})"
        )
    blob = data[_HEADER.size:]
    if len(blob) != length or hashlib.sha256(blob).digest() != digest:
        raise IndexChecksumError(f"{path}: checksum mismatch (truncated or corrupt)")
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise IndexFileError(f"{path}: malformed payload ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != "lexdrift.index":
        raise IndexFileError(f"{path}: unrecognized payload")
    try:
        lexicon = lexicon_from_dict(payload["lexicon"])
        marks = [(i, y, m, tuple(c)) for i, y, m, c in payload["docs"]]
        index = YearTermIndex(lexicon, payload["min_year"], payload["max_year"], marks)
    except KeyError as exc:
        raise IndexFileError(f"{path}: malformed payload (no {exc} field)") from None
    except (TypeError, ValueError) as exc:
        raise IndexFileError(f"{path}: malformed payload ({exc})") from None
    problem = _type_problem(index)
    if problem is not None:
        raise IndexFileError(f"{path}: malformed payload ({problem})")
    return index


def _type_problem(index: YearTermIndex) -> str | None:
    """What in a decoded index has the wrong type or range, if anything.
    Each year's columns go through ``map``, ``min`` and ``max``, so the
    checks add little to a load."""
    if set(map(type, (*index.year_range, *index.years))) - {int}:
        return "a year is not an integer"
    limit = 1 << len(index.vocabulary)
    for year in index.years:
        masks = index._masks[year]
        if set(map(type, masks)) - {int} or min(masks) < 0 or max(masks) >= limit:
            return f"a term bitmask in {year} is not an integer within the vocabulary"
        if set(map(type, chain.from_iterable(index._cats[year]))) - {str}:
            return f"a category in {year} is not a string"
    return None
