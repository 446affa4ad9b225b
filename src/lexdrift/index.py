"""Immutable per-year index of lexicon-term evidence.

Each document is reduced at build time to a bitset over the lexicon
vocabulary (phrases included as ordinary entries), and ``finish`` turns the
bitsets into posting columns: one big integer per vocabulary entry across
the index, each year a byte-aligned bit range of it. A year's categories
are a table of its distinct per-document category tuples, with each
document's row in it. A boolean or at-least-k query is walked once over the
columns, a few big-integer operations per node, and its node keeps the
posting; a year's count or a term's document frequency is then a shift, a
mask and a popcount, and a category skew (tallied here, the one module that
knows the table) one pass over the matching documents' rows, not one test
per document. Builds are deterministic: document order and any
partitioning of the corpus across builders produce identical indexes. The
finished index is immutable and safe for concurrent readers.

A corpus scan (:func:`scan_index`) is a :class:`YearTermIndex` too, built
by the same matcher and the same per-year tables over the query's own terms
instead of the lexicon, so a scan also counts terms outside the lexicon.
:func:`eval_count` and :func:`category_skew` answer its query like any
index's. It tokenizes only the documents whose text could satisfy the query
on plain substrings, so its columns are exact for those documents alone: a
scan answers its own query, not another over the same terms.

Index files are a single binary container: magic, format version, payload
length and checksum, then two zlib streams. The first stores the columns
themselves: a length-prefixed canonical JSON header (lexicon, year range,
and per year its document count and category table), then each year's bytes
of the term columns and its category rows, little-endian. The second holds
each year's document ids, which no query reads: a load keeps it deflated,
and the ids are inflated and checked when first used. A load decodes no
per-document JSON rows, and no query builds columns. Version 5, the one
written, orders a year's documents by category row, mask and id, so that
documents alike sit together and the columns and rows deflate to runs, and
checks the payload with CRC-32: it catches a truncated or corrupt file, the
check's one job, and unlike SHA-256 loads no OpenSSL (``hashlib``), a sixth
of a command's memory. Versions 4 (the same, documents by id), 3 (one
stream, the ids in the header), 2 (the same with a SHA-256) and 1 (one JSON
row per document) still load.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from collections import Counter, defaultdict
from functools import partial, reduce
from itertools import chain, compress, islice, product, repeat
from operator import and_, eq, le, lt, or_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import Document, DEFAULT_MAX_YEAR, DEFAULT_MIN_YEAR, JOINERS, raw_tokens, tokenize
from .errors import (
    DataError,
    IndexBuildError,
    IndexChecksumError,
    IndexFileError,
    IndexVersionError,
    UnindexedTermError,
    UnknownYearError,
    lone_surrogate,
    long_integer,
)
from .lexicon import Lexicon, lexicon_from_dict, lexicon_to_dict
from .query import And, AnyOf, AtLeastK, Or, Phrase, Query, Term, query_vocabulary

_MAGIC = b"LXDX"
_VERSION = 5
# Magic, version, payload length and the payload's CRC-32; versions 1 and 2
# hold its SHA-256 instead.
_HEADER = struct.Struct("<4sHQI")
_SHA256_HEADER = struct.Struct("<4sHQ32s")
# A version 2 to 5 payload starts with the byte length of its JSON header.
_JSON_LENGTH = struct.Struct("<I")
_FORMAT = "lexdrift.index"

# One mark per document: (doc_id, year, vocabulary bitmask, categories), checked on intake.
Mark = tuple[str, int, int, tuple[str, ...]]

# The distinct category tuples of a year's documents, sorted.
CategoryTable = tuple[tuple[str, ...], ...]


class _Year(NamedTuple):
    n: int  # its documents
    start: int  # document i is bit start + i of each column; a multiple of 8
    table: CategoryTable
    rows: array  # document i's categories are table[rows[i]]


class YearTermIndex:
    """One posting column per vocabulary entry across all years and, per
    year, its bit range and its category table with each document's row: a
    query costs a few big-integer operations per node. The document ids are
    kept apart, since no query reads them."""

    def __init__(self, lexicon: Lexicon, min_year: int, max_year: int,
                 marks: Iterable[Mark]):
        terms = lexicon.terms()
        # IndexBuilder.finish passes the marks it has gathered.
        gathered = marks if type(marks) is _Gathered else _Gathered(marks)
        self._init(lexicon, terms, min_year, max_year, *gathered.finish(len(terms), unique=True))

    # Whether the documents of each year are ordered by id, as a version 2
    # to 4 file holds them, rather than by category row, mask and id.
    _by_id = False

    def _init(self, lexicon: Lexicon, terms: tuple[str, ...], min_year: int, max_year: int,
              parts: Iterable[tuple],
              ids: Sequence[tuple[str, ...]] | Callable[..., Sequence]) -> YearTermIndex:
        """This index over the vocabulary *terms*, made of one part a year (year, document
        count, category table, rows, its bytes of each column), the years strictly ascending
        integers within *min_year*-*max_year*, and of each year's *ids* in its documents'
        order, or the function that decodes them (see :meth:`_doc_ids`); each year is placed
        on byte-aligned bits of the joined columns."""
        _check_year_range(min_year, max_year)
        chunks, spans, start = [[] for _ in terms], [], 0
        for year, n, table, rows, columns in parts:
            for chunk, column in zip(chunks, columns):
                chunk.append(column)
            spans.append((year, _Year(n, start, table, rows)))
            start += 8 * ((n + 7) // 8)
        self._columns = tuple(int.from_bytes(b"".join(chunk), "little") for chunk in chunks)
        self._ids = ids
        last = min_year - 1
        for k, (year, _) in enumerate(spans):
            if type(year) is not int or not min_year <= year <= max_year:
                raise IndexBuildError(f"document {min(self._doc_ids(spans)[k])!r}: year {year!r} "
                                      f"outside allowed range {min_year}-{max_year}")
            if year <= last:
                raise IndexBuildError(f"the years are not strictly ascending: {year} after {last}")
            last = year
        self._lexicon = lexicon
        self._min_year = min_year
        self._max_year = max_year
        self._terms = terms
        self._bit = {t: i for i, t in enumerate(terms)}
        self._by_year = dict(spans)
        self._years = tuple(self._by_year)
        return self

    @property
    def lexicon(self) -> Lexicon:
        return self._lexicon

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    @property
    def year_range(self) -> tuple[int, int]:
        return self._min_year, self._max_year

    @property
    def doc_count(self) -> int:
        return sum(y.n for y in self._by_year.values())

    def total(self, year: int) -> int:
        y = self._by_year.get(year)
        return y.n if y else 0

    def term_bit(self, term: str) -> int:
        """Bit position of a vocabulary entry; accepts the entry verbatim or
        a name that exactly one entry equals ignoring case."""
        bit = self._bit.get(term)
        if bit is None:
            found = self._lexicon.resolve(term)
            bit = self._bit.get(found[0]) if len(found) == 1 else None
            if bit is None:
                raise UnindexedTermError(term)
        return bit

    def df(self, term: str, year: int) -> int:
        bit = self.term_bit(term)
        y = self._by_year.get(year)
        return _in_year(self._columns[bit], y).bit_count() if y else 0

    def doc_marks(self) -> Iterator[Mark]:
        """All (doc_id, year, bitmask, categories) rows, ordered by id
        within each year."""
        for (year, y), ids in zip(self._by_year.items(), self._doc_ids()):
            columns = [_in_year(col, y) for col in self._columns]
            yield from sorted(zip(ids, repeat(year), _doc_masks(columns, y.n),
                                  map(y.table.__getitem__, y.rows)))

    def _doc_ids(self, spans: Sequence[tuple[int, _Year]] = ()) -> Sequence[tuple[str, ...]]:
        """Each year's document ids, in its documents' order. A version 4 or
        5 file's are decoded, and checked against this index's years and
        columns, or *spans*, the (year, _Year) pairs of an index not yet
        made, when first asked for; two threads asking at once decode them
        twice, to equal tuples, so no lock is needed."""
        ids = self._ids
        if callable(ids):
            ids = self._ids = ids(spans or tuple(self._by_year.items()), self._columns)
        return ids


def _check_year_range(min_year: int, max_year: int) -> None:
    if type(min_year) is not int or type(max_year) is not int:
        raise IndexBuildError(f"year range {min_year!r}-{max_year!r}: a year is not an integer")


def _check_unique(ids_by_year: Iterable[Sequence[str]]) -> None:
    """Refuse an id that two documents share, naming the smallest such."""
    ids = list(chain.from_iterable(ids_by_year))
    if len(set(ids)) != len(ids):
        ids.sort()  # a repeat is an equal neighbour
        twice = next(compress(ids, map(eq, ids, islice(ids, 1, None))))
        raise IndexBuildError(f"duplicate document id {twice!r}")


def _masks_fit(masks: Sequence, width: int) -> bool:
    """Whether each of *masks* is an int of *width* bits at most, not
    negative, as :func:`_columns` needs; three C passes, no Python loop."""
    return not masks or not set(map(type, masks)) - {int} and min(masks) >= 0 \
        and not max(masks) >> width


def _in_year(posting: int, y: _Year) -> int:
    """Year *y*'s bits of an index-wide *posting*, its document *i* at bit *i*."""
    return posting >> y.start & ((1 << y.n) - 1)


class _Gathered:
    """Marks gathered as they come, per year: the ids, the masks, a dict from
    each distinct category tuple to its row, first seen first, and the rows.
    :meth:`add`, every build's one door, keeps nothing :func:`load_index` refuses
    but a mask, which :meth:`finish` checks against the vocabulary's width, a year
    outside the index's range, which :meth:`YearTermIndex._init` refuses, and a
    repeated id, which :meth:`finish` refuses in every build that can be saved."""

    def __init__(self, marks: Iterable[Mark] = ()):
        self._years = defaultdict(lambda: ([], [], {}, []))
        for mark in marks:
            self.add(*mark)

    def add(self, doc_id: str, year: int, mask: int, cats: Iterable[str]) -> None:
        # The corpus reader checks these types; a Document built in code, or a
        # version 1 file's row, may hold others.
        if type(year) is not int:
            raise IndexBuildError(f"document {doc_id!r}: year {year!r} is not an integer")
        _check_strings((doc_id,), "a document id", year)
        if type(cats) is not tuple:
            if isinstance(cats, (set, frozenset)):  # its order varies with the hash seed
                raise IndexBuildError(f"document {doc_id!r}: categories in a set have no order")
            if isinstance(cats, str) or not isinstance(cats, Iterable):
                raise IndexBuildError(f"document {doc_id!r}: categories {cats!r} "
                                      "are not a tuple of strings")
            cats = tuple(cats)
        _check_categories(cats, year)
        ids, masks, table, rows = self._years[year]
        ids.append(doc_id)
        masks.append(mask)
        rows.append(table.setdefault(cats, len(table)))

    def marks(self) -> Iterator[Mark]:
        """The marks gathered so far, year by year; one added while they are read is not."""
        for year, (ids, masks, table, rows) in self._years.items():
            cats = list(table)
            yield from zip(islice(ids, len(ids)), repeat(year), masks, map(cats.__getitem__, rows))

    def finish(self, width: int,
               unique: bool = False) -> tuple[list[tuple], list[tuple[str, ...]]]:
        """Each year's part over a vocabulary of *width* entries, and its ids,
        years ascending and a year's documents by category row, mask and id;
        with *unique*, an id that two documents share is refused."""
        parts, year_ids = [], []
        for year, (ids, masks, seen, rows) in sorted(self._years.items()):
            if not _masks_fit(masks, width):
                doc_id, mask = next((d, m) for d, m in zip(ids, masks)
                                    if not _masks_fit((m,), width))
                raise IndexBuildError(f"document {doc_id!r}: term bitmask {mask!r} is not "
                                      f"an integer within the {width}-term vocabulary")
            table = tuple(sorted(seen))
            rank = list(map({cats: r for r, cats in enumerate(table)}.__getitem__, seen))
            ranks = list(map(rank.__getitem__, rows))
            # By id, then stably by mask and by row: documents of equal ids, which
            # a scan can hold, and equal rows and masks are alike.
            order = sorted(range(len(ids)), key=ids.__getitem__)
            order.sort(key=masks.__getitem__)
            order.sort(key=ranks.__getitem__)
            # Year by year: one bit string of all years would hold every mask as text.
            size = (len(order) + 7) // 8
            year_ids.append(tuple(map(ids.__getitem__, order)))
            parts.append((year, len(order), table,
                          array(_row_type(len(table)), map(ranks.__getitem__, order)),
                          [col.to_bytes(size, "little")
                           for col in _columns([masks[i] for i in order], width)]))
        if unique:
            _check_unique(year_ids)
        return parts, year_ids


def _columns(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Posting columns of one year's document masks: for each of the
    *width* vocabulary bits, an integer whose bit *i* is set when document
    *i* holds it."""
    # Each mask as a fixed-width binary string, all documents in one
    # string; reversed, the string holds the last document first and
    # vocabulary bit j of every document at positions j, j+width, ...
    bits = "".join(map(format, masks, repeat(f"0{width}b")))[::-1]
    return tuple(int(bits[j::width], 2) for j in range(width))


def _doc_masks(columns: Sequence[int], n: int) -> list[int]:
    """The masks of *n* documents from their posting columns: the inverse
    of :func:`_columns`."""
    if not columns:  # an empty vocabulary
        return [0] * n
    # Column j as an n-digit binary string holds document i at position
    # n - 1 - i; read down the columns from the last, a position spells the
    # mask of one document, the last document first.
    digits = [format(col, f"0{n}b") for col in reversed(columns)]
    return [int("".join(bits), 2) for bits in zip(*digits)][::-1]


def _row_type(size: int) -> str:
    """The array type of the rows of a category table of *size* rows: one,
    two or four bytes a row."""
    return "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I"


def _little_endian(rows: array) -> array:
    """*rows* in little-endian byte order, or back: a byte-swapped copy on
    a big-endian machine."""
    if sys.byteorder == "big":
        rows = array(rows.typecode, rows)
        rows.byteswap()
    return rows


# A gate of at most this many needles is tested on each document before it
# is tokenized; a larger one is not. On the benchmark documents (1.45 KB,
# about 230 tokens; Python 3.11.7, 2 vCPUs), a gate costs 2.4-3.9 µs a
# document for its first needle, case-folding included, and 1.1-1.4 µs for
# each further one that misses; tokenizing and probing cost 20-29 µs. So a
# gate whose every needle misses costs what it saves at 16-20 needles.
_GATE_MAX_NEEDLES = 16


class _CompiledVocab:
    """Vocabulary entries, given as {name: (spelling, case-sensitive)},
    prepared for fast per-document matching: bit *j* of a document's mask
    is set when the document holds entry *j*, as spelled. There is one
    table per tokenizer in use, ``raw_tokens`` for the case-sensitive
    entries and ``tokenize`` for the others. A table's probe tokens are its single-token entries and
    its phrases' first tokens; it maps each to the bits of the single-token
    entries with that token (none, for a phrase's first token alone), and
    holds the phrases with their first token. A document's tokens are
    looked up in the probe once. An entry with no tokens never matches.

    Query *q* over these names becomes :attr:`gate`, a test of a document's
    text: *q* evaluated on plain substrings (:func:`_gate`). Every token is a
    substring of the text it came from (of its case fold, for ``tokenize``),
    except that a curly apostrophe reads as a straight one, so a document
    the gate fails cannot match *q*: its mask is 0, and :meth:`mask` does
    not tokenize it. Without *q*, or with a gate of too many needles to pay,
    the gate passes every text."""

    def __init__(self, entries: Mapping[str, tuple[str, bool]], q: Query | None):
        tables: dict[Callable[[str], list[str]],
                     tuple[dict[str, int], list[tuple[str, list[str], int]]]] = {}
        needles = {}
        apart = str.maketrans(JOINERS, " " * len(JOINERS))
        for bit, (name, (term, case_sensitive)) in enumerate(entries.items()):
            split = raw_tokens if case_sensitive else tokenize
            single, phrases = tables.setdefault(split, ({}, []))
            toks = split(term)
            # A needle is a token's longest run of letters without a joiner.
            needles[name] = (int(case_sensitive), tuple(dict.fromkeys(
                max(tok.translate(apart).split(), key=len) for tok in toks)))
            if len(toks) == 1:
                # Entries that differ only in case share a token: OR, so
                # each of them gets its bit.
                single[toks[0]] = single.get(toks[0], 0) | (1 << bit)
            elif toks:
                phrases.append((toks[0], toks, 1 << bit))
                single.setdefault(toks[0], 0)
        self.tables = [(split, frozenset(single), single, phrases)
                       for split, (single, phrases) in tables.items()]
        gate, size = _gate(q, needles) if q is not None else (None, 0)
        self.gate = _open_gate if gate is None or size > _GATE_MAX_NEEDLES else _text_gate(gate)

    def mask(self, doc_id: str, text: str) -> int:
        """The mask of document *doc_id* of *text*, from its tokens, or 0
        where :attr:`gate` fails the text; a text that is no string is refused."""
        if not isinstance(text, str):
            raise IndexBuildError(f"document {doc_id!r}: text is not a string")
        if not self.gate(text):
            return 0
        mask = 0
        for split, probe, single, phrases in self.tables:
            seq = split(text)
            hits = probe.intersection(seq)
            for tok in hits:
                mask |= single[tok]
            for first, toks, bm in phrases:
                if first in hits and _seq_contains(seq, toks):
                    mask |= bm
        return mask


# A gate: a test of a document's case-folded and raw text, and its needle count.
_Gate = tuple[Callable[[tuple[str, str]], bool], int]


def _text_gate(test: Callable[[tuple[str, str]], bool]) -> Callable[[str], bool]:
    """The gate *test* as a test of a document's text."""
    # For ASCII text, lower() is the case fold, and the faster of the two.
    return lambda text: test((text.lower() if text.isascii() else text.casefold(), text))


def _open_gate(text: str) -> bool:
    return True


def _gate(q: Query, needles: Mapping[str, tuple[int, tuple[str, ...]]]) -> _Gate:
    """*q* as a gate that passes wherever *q* can match. *needles* maps a
    term to the text its needles are looked for in (1, the raw text, for a
    case-sensitive term; 0, the case fold) and to the needles. A term
    passes when all of its needles occur, one with none never; the other
    nodes combine their parts as on tokens and stop once the answer is
    known, and at-least-k counts a member listed twice twice."""
    if isinstance(q, (And, Or)):  # the parts of fewest needles first
        parts = sorted((_gate(p, needles) for p in q.parts), key=lambda part: part[1])
        k = len(parts) if isinstance(q, And) else 1
    else:
        members = q.members if isinstance(q, (AnyOf, AtLeastK)) else (
            q.term if isinstance(q, Term) else q.text,)
        k = q.k if isinstance(q, AtLeastK) else 1
        leaves = [needles[m] for m in members]
        if len({hay for hay, _ in leaves}) == 1 and all(len(f) <= 1 for _, f in leaves):
            # One pass over the needles, a member's one needle or none.
            return _substrings(k, leaves[0][0], tuple(chain.from_iterable(f for _, f in leaves)))
        parts = [_substrings(max(len(f), 1), hay, f) for hay, f in leaves]
        if len(parts) == 1:  # a phrase
            return parts[0]
    tests, count = [test for test, _ in parts], _at_least(k, len(parts))
    return (lambda hays: count(test(hays) for test in tests)), sum(size for _, size in parts)


def _substrings(k: int, hay: int, found: tuple[str, ...]) -> _Gate:
    """The gate passing when at least *k* of *found* occur in text *hay*."""
    count = _at_least(k, len(found))
    return (lambda hays: count(map(hays[hay].__contains__, found))), len(found)


def _at_least(k: int, n: int) -> Callable[[Iterator[bool]], bool]:
    """Whether at least *k* of *n* truth values hold, reading no more of
    them than it must."""
    if k == 1:
        return any
    if k == n:
        return all

    def count(results: Iterator[bool]) -> bool:
        hits = misses = 0
        for hit in results:
            hits += hit
            misses += not hit
            if hits == k or misses > n - k:
                return hits == k
        return False
    return count


def _seq_contains(seq: list[str], toks: list[str]) -> bool:
    first, n, i = toks[0], len(toks), -1
    try:
        while True:  # from one occurrence of the first token to the next
            i = seq.index(first, i + 1)
            if seq[i : i + n] == toks:
                return True
    except ValueError:
        return False


class IndexBuilder:
    """Accumulates document marks; partitions built separately merge into
    the same index as a single sequential build. A document is checked when
    it is added; each id is held once, in its year's list, so a duplicate is
    reported when the builder finishes, not when it is added or merged."""

    def __init__(self, lexicon: Lexicon, *, min_year: int = DEFAULT_MIN_YEAR,
                 max_year: int = DEFAULT_MAX_YEAR):
        _check_year_range(min_year, max_year)
        self.lexicon = lexicon
        self.min_year = min_year
        self.max_year = max_year
        terms = lexicon.terms()
        self._vocab = _CompiledVocab({e.term: (e.term, e.case_sensitive)
                                      for e in lexicon.entries}, AnyOf(terms) if terms else None)
        self._marks = _Gathered()

    def add(self, doc: Document) -> None:
        doc_id, year, text, cats = doc
        # A year of another type than int is refused by _Gathered.add.
        if type(year) is int and not self.min_year <= year <= self.max_year:
            raise IndexBuildError(f"document {doc_id!r}: year {year} outside allowed "
                                  f"range {self.min_year}-{self.max_year}")
        self._marks.add(doc_id, year, self._vocab.mask(doc_id, text), cats)

    def add_all(self, corpus: Iterable[Document]) -> None:
        for doc in corpus:
            self.add(doc)

    def merge(self, other: "IndexBuilder") -> None:
        """Add *other*'s documents; an id both hold is reported by :meth:`finish`."""
        if other.lexicon is not self.lexicon and other.lexicon != self.lexicon:
            raise IndexBuildError("cannot merge builders with different lexicons")
        for mark in other._marks.marks():
            self._marks.add(*mark)

    def finish(self) -> YearTermIndex:
        return YearTermIndex(self.lexicon, self.min_year, self.max_year, self._marks)


def build_index(corpus: Iterable[Document], lexicon: Lexicon) -> YearTermIndex:
    """Index a document sequence against a lexicon vocabulary. An id, text or
    category that is no string, or a year that is no int, raises IndexBuildError."""
    builder = IndexBuilder(lexicon)
    builder.add_all(corpus)
    return builder.finish()


# Unused in the package; bench/run.py's masks_tested counter patches it.
def compile_predicate(index: YearTermIndex, q: Query) -> Callable[[int], bool]:
    """Turn a query into a predicate over document bitmasks, true where
    :func:`eval_count` counts the document: its walk of *q*, over the
    mask's one-document columns. Raises UnindexedTermError when the query
    mentions vocabulary the index does not carry."""
    bit, width = index.term_bit, len(index._terms)
    _walk([0] * width, bit, q)  # every term is looked up, so an unindexed one raises here
    return lambda m: _walk([m >> j & 1 for j in range(width)], bit, q) == 1


def eval_count(index: YearTermIndex, q: Query, year: int) -> int:
    """Exact number of documents in *year* satisfying *q* (presence
    semantics, each document counted once)."""
    y = _year(index, year)  # an unknown year is reported first
    return _in_year(_posting(index, q), y).bit_count()


class CategorySkew(NamedTuple):
    """Per-category prevalence among query matches vs among all documents."""

    year: int
    matched: int
    total: int
    rows: Mapping[str, tuple[float, float]]
    warning: str | None = None
    __hash__ = None  # rows is a dict


def category_skew(index: YearTermIndex, q: Query, year: int) -> CategorySkew:
    """How matching documents skew across subject categories in one year.
    A document with several categories counts once per category."""
    y = _year(index, year)
    return _skew(year, _in_year(_posting(index, q), y), y.table, y.rows)


def _year(index: YearTermIndex, year: int) -> _Year:
    y = index._by_year.get(year)
    if y is None:
        raise UnknownYearError(f"no documents in year {year}")
    return y


def _posting(index: YearTermIndex, q: Query) -> int:
    """The index-wide column of the documents satisfying *q*, kept on its
    node with the columns it was walked over, so a query is walked once per
    index; a query naming a term the index lacks keeps nothing."""
    plan = getattr(q, "_plan", None)
    if plan is None or plan[0] is not index._columns:
        plan = (index._columns, _walk(index._columns, index.term_bit, q))
        object.__setattr__(q, "_plan", plan)
    return plan[1]


def _walk(cols: Sequence[int], bit: Callable[[str], int], q: Query) -> int:
    """The column of the documents satisfying *q*, each term's in *cols* at
    *bit*(term). Every term is looked up, so an unknown one raises."""
    if isinstance(q, Term):
        return cols[bit(q.term)]
    if isinstance(q, Or):
        return reduce(or_, [_walk(cols, bit, p) for p in q.parts])
    if isinstance(q, And):
        return reduce(and_, [_walk(cols, bit, p) for p in q.parts])
    if isinstance(q, AnyOf):
        return reduce(or_, [cols[bit(m)] for m in q.members])
    if isinstance(q, AtLeastK):
        # reach[j]: documents holding at least j + 1 of the members seen so far
        reach = [0] * q.k
        for col in map(cols.__getitem__, map(bit, q.members)):
            for j in range(q.k - 1, 0, -1):
                reach[j] |= reach[j - 1] & col
            reach[0] |= col
        return reach[-1]
    if isinstance(q, Phrase):
        return cols[bit(q.text)]
    raise TypeError(f"not a query node: {q!r}")


def scan_index(corpus: Iterable[Document], lexicon: Lexicon, q: Query) -> YearTermIndex:
    """*corpus* indexed over the query's own terms instead of the lexicon,
    so that :func:`eval_count` and :func:`category_skew` answer *q* for it
    even where it names terms outside the lexicon. A name means the entry
    :meth:`Lexicon.resolve` finds, as for an index: one spelled exactly
    so, else the one equal to it ignoring case. It is matched as that entry
    is spelled, case-sensitive exactly when the entry is; a name of no
    entry, or of several, is matched case-folded. A document that cannot
    match *q*, tested on plain substrings, holds no term in it, so the
    index answers *q* exactly and no other query. Such an index cannot be
    saved. Documents are checked as by :meth:`IndexBuilder.add`, in any year."""
    terms = tuple(sorted(query_vocabulary(q)))
    case_sensitive = {e.term: e.case_sensitive for e in lexicon.entries}
    found = {t: lexicon.resolve(t) for t in terms}
    vocab = _CompiledVocab({t: (f[0], case_sensitive[f[0]]) if len(f) == 1 else (t, False)
                            for t, f in found.items()}, q)
    mask, marks = vocab.mask, _Gathered()
    for doc_id, year, text, cats in corpus:
        marks.add(doc_id, year, mask(doc_id, text), cats)
    parts, ids = marks.finish(len(terms))
    years = [part[0] for part in parts] or [DEFAULT_MIN_YEAR, DEFAULT_MAX_YEAR]  # ascending
    return YearTermIndex.__new__(YearTermIndex)._init(lexicon, terms, years[0], years[-1], parts,
                                                      ids)


def eval_count_scan(corpus: Iterable[Document], lexicon: Lexicon, q: Query,
                    year: int) -> int:
    """:func:`eval_count` by one pass over *corpus* (see
    :func:`scan_index`); 0 for a year with no documents."""
    # By position, for a plain tuple; a year of another type goes on to be refused.
    index = scan_index((d for d in corpus if d[1] == year or type(d[1]) is not int), lexicon, q)
    return eval_count(index, q, year) if index.total(year) else 0


# The bits of each byte value, lowest first.
_BYTE_BITS = [bits[::-1] for bits in product((0, 1), repeat=8)]


def _skew(year: int, posting: int, table: CategoryTable, rows: Sequence[int]) -> CategorySkew:
    """Tally the documents of *year*, given as the posting column of the
    query's matches, the category table and each document's row in it;
    a document listing a category twice counts twice."""
    # The bits of the posting, document by document, pick the matches' rows.
    bits = chain.from_iterable(map(_BYTE_BITS.__getitem__,
                                   posting.to_bytes((len(rows) + 7) // 8, "little")))
    hits, docs = Counter(compress(rows, bits)), Counter(rows)
    matches: dict[str, int] = {}
    every: dict[str, int] = {}
    for row, cats in enumerate(table):
        for cat in cats:
            matches[cat] = matches.get(cat, 0) + hits[row]
            every[cat] = every.get(cat, 0) + docs[row]
    total, matched = len(rows), posting.bit_count()
    if not every:
        return CategorySkew(year, matched, total, {},
                            warning=f"no category metadata recorded for year {year}")
    return CategorySkew(year, matched, total, {
        cat: (matches[cat] / matched if matched else 0.0, every[cat] / total)
        for cat in sorted(every)
    })


def save_index(index: YearTermIndex, path) -> None:
    """Write *index* as a version 5 file: the JSON header, then per year of
    n documents, ordered by category row, mask and id, its term columns,
    ceil(n/8) bytes each, and the n category rows, one, two or four bytes
    each as the table has up to 2**8, 2**16 or more rows; then, in a stream
    of its own, each year's ids as a JSON list. It checks nothing: no index
    holds what :func:`load_index` refuses, or refuses when the ids are first
    used."""
    if index._terms != index.lexicon.terms():
        raise IndexBuildError("an index over a query's terms (a corpus scan) cannot be saved")
    if index._by_id:  # an older file's documents: saved in the order a build gives them
        index = YearTermIndex(index.lexicon, *index.year_range, index.doc_marks())
    ids = json.dumps(index._doc_ids(), separators=(",", ":")).encode("utf-8")
    years = []
    columns: list[bytes] = []
    for year, y in index._by_year.items():
        size = (y.n + 7) // 8
        years.append({"year": year, "docs": y.n, "categories": [list(cats) for cats in y.table]})
        columns += [_in_year(col, y).to_bytes(size, "little") for col in index._columns]
        columns.append(_little_endian(y.rows).tobytes())
    header = json.dumps({
        "format": _FORMAT,
        "lexicon": lexicon_to_dict(index.lexicon),
        "min_year": index.year_range[0],
        "max_year": index.year_range[1],
        "years": years,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Level 6: level 9 compresses four to six times slower for under 2% fewer bytes.
    blob = zlib.compress(b"".join([_JSON_LENGTH.pack(len(header)), header, *columns]), 6) \
        + zlib.compress(ids, 6)
    head = _HEADER.pack(_MAGIC, _VERSION, len(blob), zlib.crc32(blob))
    Path(path).write_bytes(head + blob)


def load_index(path) -> YearTermIndex:
    """Read a version 1 to 5 index file. Anything malformed, the embedded
    lexicon included, is an IndexFileError naming *path*; a version 1
    file's rows are checked by the build intake, and a version 4 or 5
    file's ids when they are first used."""
    with open(path, "rb") as file:
        data = file.read()
    version = int.from_bytes(data[4:6], "little")
    header, checksum, decode = _VERSIONS.get(version, (_HEADER, None, None))
    if len(data) < header.size or data[:4] != _MAGIC:
        raise IndexFileError(f"{path}: not an index file")
    if decode is None:
        raise IndexVersionError(
            f"{path}: unsupported index version {version} "
            f"(supported: {', '.join(map(str, _VERSIONS))})"
        )
    _, _, length, check = header.unpack_from(data)
    blob = data[header.size:]
    if len(blob) != length or checksum(blob) != check:
        raise IndexChecksumError(f"{path}: checksum mismatch (truncated or corrupt)")
    return _decoded(path, decode, blob, path)


def _decoded(path, decode: Callable, *args, **kwargs):
    """*decode*(*args*, **kwargs*), of the file *path*, whose malformed
    payload is an IndexFileError naming it."""
    try:
        return decode(*args, **kwargs)
    except IndexFileError:  # a version 4 or 5 file's ids, decoded to name a year's smallest id
        raise
    except KeyError as exc:
        raise IndexFileError(f"{path}: malformed payload (no {exc} field)") from None
    except (zlib.error, TypeError, ValueError, DataError) as exc:
        raise IndexFileError(f"{path}: malformed payload ({exc})") from None


def _decode_v1(blob: bytes, path) -> YearTermIndex:
    """A version 1 payload, one JSON row (id, year, mask, categories) per
    document, built by the marks constructor, whose intake checks each row
    as it checks a fresh build's. A malformed payload raises KeyError,
    TypeError, ValueError, zlib.error or a DataError."""
    doc = _json_object(zlib.decompress(blob))
    return YearTermIndex(lexicon_from_dict(doc["lexicon"]), doc["min_year"], doc["max_year"],
                         doc["docs"])


def _decode_v2(blob: bytes, path, version: int = 2) -> YearTermIndex:
    """A payload of *version* 2 to 5, each column read straight into an
    integer. Versions 2 and 3 list each year's ids in the header, checked
    here; versions 4 and 5 give each year's document count there and the ids
    in a second deflated stream, left to be decoded and checked when first
    used. Versions 2 to 4 order a year's documents by id, version 5 by
    category row, mask and id. A malformed payload raises KeyError,
    TypeError, ValueError, zlib.error or DataError."""
    payload, stream = _inflate(blob)
    id_stream = version >= 4
    if id_stream and not stream:
        raise ValueError("no id stream after the payload")
    if len(payload) < _JSON_LENGTH.size:
        raise ValueError("no header length")
    (size,) = _JSON_LENGTH.unpack_from(payload)
    offset = _JSON_LENGTH.size + size
    if offset > len(payload):
        raise ValueError(f"header length {size} runs past the payload")
    doc = _json_object(payload[_JSON_LENGTH.size:offset])
    lexicon = lexicon_from_dict(doc["lexicon"])
    entries = doc["years"]
    if type(entries) is not list:
        raise ValueError("'years' is not a list")
    terms = lexicon.terms()
    width, parts, listed = len(terms), [], []
    for entry in entries:
        year, table = entry["year"], entry["categories"]
        if id_stream:
            n = entry["docs"]
            if type(n) is not int:
                raise ValueError(f"the document count of {year} is not an integer")
        else:
            listed.append(entry["ids"])
            if type(listed[-1]) is not list:
                raise ValueError(f"the ids of {year} are not a list")
            n = len(listed[-1])
        if type(table) is not list or not all(type(row) is list for row in table):
            raise ValueError(f"the category table of {year} is not a list of lists")
        _check_categories(chain.from_iterable(table), year)
        table = tuple(map(tuple, table))
        # A strict order keeps a re-save canonical.
        _check_ascending(table, f"the category-table rows of {year}")
        if n < 1:
            raise ValueError(f"year {year} has no documents")
        step = (n + 7) // 8
        rows = array(_row_type(len(table)))
        cut = offset + width * step  # where the year's category rows start
        end = cut + n * rows.itemsize
        if end > len(payload):
            raise ValueError(f"the columns of {year} are cut short")
        # A column's last byte of the year holds no bit past its n documents.
        if n % 8 and any(payload[o] >> n % 8 for o in range(offset + step - 1, cut, step)):
            raise ValueError(f"a column of {year} is wider than its {n} documents")
        columns = [payload[o:o + step] for o in range(offset, cut, step)]
        raw = payload[cut:end]
        rows.frombytes(raw)
        rows = _little_endian(rows)
        offset = end
        if rows.itemsize == 1:  # one C pass each: rows past the table, table rows unused
            valid = bytes(range(len(table)))
            past, unused = raw.translate(None, valid), valid.translate(None, raw)
        else:
            past, unused = max(rows) >= len(table), len(set(rows)) != len(table)
        if past:
            raise ValueError(f"a document of {year} has no row in its category table")
        if unused:
            raise ValueError(f"a category-table row of {year} has no documents")
        parts.append((year, n, table, rows, columns))
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} bytes after the last column")
    years, counts = [part[0] for part in parts], [part[1] for part in parts]
    ids = partial(_decoded, path, _stream_ids, stream, version >= 5) if id_stream \
        else _file_ids(years, counts, listed)
    index = YearTermIndex.__new__(YearTermIndex)
    index._by_id = version < 5
    return index._init(lexicon, terms, doc["min_year"], doc["max_year"], parts, ids)


def _stream_ids(stream: bytes, by_row: bool, spans: Sequence[tuple[int, _Year]],
                columns: Sequence[int]) -> tuple[tuple[str, ...], ...]:
    """The ids of a version 4 or 5 file, a deflated *stream* of their own,
    checked for the index of *columns* and *spans*, its (year, _Year)
    pairs: ordered by id, or *by_row* by category row, mask and id."""
    text, rest = _inflate(stream)
    if rest:
        raise ValueError(f"{len(rest)} bytes after the id stream")
    ids = _file_ids([year for year, _ in spans], [y.n for _, y in spans], _json(text),
                    ascending=not by_row)
    for (year, y), year_ids in zip(spans, ids):
        if by_row and not _ordered(y, columns, year_ids):
            raise ValueError(f"the (row, mask, id) keys of {year} are not strictly ascending")
    return ids


def _file_ids(years: Sequence, counts: Sequence[int], listed,
              ascending: bool = True) -> tuple[tuple[str, ...], ...]:
    """Each year's ids as a file lists them, checked: for each of *years* a
    list of its *counts* strings, if *ascending* strictly so, which keeps a
    re-save canonical, and no id in two years."""
    if type(listed) is not list or len(listed) != len(years):
        raise ValueError(f"the ids are not a list for each of the {len(years)} years")
    for year, n, ids in zip(years, counts, listed):
        if type(ids) is not list or len(ids) != n:
            raise ValueError(f"the ids of {year} are not a list of its {n} documents")
        _check_strings(ids, "a document id", year)
        if ascending:
            _check_ascending(ids, f"the ids of {year}")
    _check_unique(listed)
    return tuple(map(tuple, listed))


def _ordered(y: _Year, columns: Sequence[int], ids: Sequence[str]) -> bool:
    """Whether the documents of year *y*, of these index-wide term *columns*
    and *ids*, are ordered by (category row, mask, id) strictly. Each
    document is compared with the next at once, as bit i of a few integers,
    and no mask is built: of two masks, the greater holds the highest term
    in which they differ."""
    rows, last = y.rows, (1 << y.n - 1) - 1  # bit i: documents i and i + 1
    same, up = last, 0  # the pairs of masks equal so far, and those found rising
    for col in reversed(columns):
        col = _in_year(col, y)
        differ = (col ^ col >> 1) & same
        up |= differ & col >> 1
        same ^= differ
    rising = _bits(map(lt, rows, rows[1:])) | up | same & _bits(map(lt, ids, ids[1:]))
    return rising & last == last and all(map(le, rows, rows[1:]))


def _bits(truths: Iterable[bool]) -> int:
    """The integer whose bit i is the i-th of *truths*."""
    return int(b"0" + bytes(truths).translate(_DIGITS)[::-1], 2)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _inflate(data: bytes) -> tuple[bytes, bytes]:
    """The first zlib stream of *data*, inflated, and the bytes after it."""
    inflate = zlib.decompressobj()
    inflated = inflate.decompress(data)
    if not inflate.eof:
        raise ValueError("a deflated stream does not end")
    return inflated, inflate.unused_data


def _sha256(blob: bytes) -> bytes:
    # Imported here, so that only a file of version 1 or 2 loads it.
    import hashlib

    return hashlib.sha256(blob).digest()


# Per version: the file header, the checksum of the payload and its decoder.
_VERSIONS = {1: (_SHA256_HEADER, _sha256, _decode_v1), 2: (_SHA256_HEADER, _sha256, _decode_v2),
             3: (_HEADER, zlib.crc32, partial(_decode_v2, version=3)),
             4: (_HEADER, zlib.crc32, partial(_decode_v2, version=4)),
             5: (_HEADER, zlib.crc32, partial(_decode_v2, version=5))}


def _json_object(data: bytes) -> dict:
    """The JSON object of an index payload, checked to be one."""
    doc = _json(data)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError("not a lexdrift index payload")
    return doc


def _json(data: bytes):
    """The JSON value of *data*; a malformed one raises ValueError."""
    try:
        return json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:  # the rest: an integer too long to convert
        raise ValueError(long_integer()) from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _check_strings(values: Iterable, what: str, year: int) -> str:
    """*values*, the ids or categories (*what*) of *year*, joined in one C
    call that refuses any that is no string."""
    try:
        return "".join(values)
    except TypeError:
        raise IndexBuildError(f"{what} in {year} is not a string") from None


def _check_categories(values: Iterable, year: int) -> None:
    """Categories are printed, so they must be strings with no lone
    surrogate."""
    problem = lone_surrogate(_check_strings(values, "a category", year))
    if problem is not None:
        raise IndexBuildError(f"a category in {year} holds a {problem}")


def _check_ascending(values: Sequence, what: str) -> None:
    if not all(map(lt, values, values[1:])):
        raise ValueError(f"{what} are not strictly ascending")
