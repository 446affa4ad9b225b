"""Immutable per-year index of lexicon-term evidence.

Each document is reduced at build time to a bitset over the lexicon
vocabulary (phrases included as ordinary entries), and ``finish`` turns the
bitsets into posting columns: one big integer per vocabulary entry across
the index, each year a byte-aligned bit range of it. A year's categories
are a table of its distinct per-document category tuples, with each
document's row in it. A boolean or at-least-k query is walked once over the
columns, a few big-integer operations per node, and the index keeps the
posting of the last query evaluated on it; a year's count or a term's
document frequency is then a shift, a mask and a popcount, and a category
skew (tallied here, the one module that knows the table) one pass over the
matching documents' rows, not one test per document. Builds are
deterministic: document order and any partitioning of the corpus across
builders produce identical indexes. The finished index is immutable, but
for that kept posting, and safe for concurrent readers.

A corpus scan (:func:`scan_index`) is a :class:`YearTermIndex` too, built
by the same matcher and the same per-year tables over the query's own terms
instead of the lexicon, so a scan also counts terms outside the lexicon.
:func:`eval_count` and :func:`category_skew` answer its query like any
index's. It tokenizes only the documents whose text could satisfy the query
on plain substrings, so its columns are exact for those documents alone: a
scan answers its own query, not another over the same terms. It keeps no
document ids, so it has no ``doc_marks()`` and cannot be saved.

Index files are a single binary container: magic, format version, payload
length and checksum, then two zlib streams. The first stores the columns
themselves: a length-prefixed canonical JSON header (lexicon, year range,
and per year its document count and category table), then each year's bytes
of the term columns and its category rows, little-endian. The second holds
each year's document ids, which no query reads: a build codes that stream
and a load keeps the file's, both deflated, and the ids are inflated and
checked where used. A load decodes no per-document JSON rows, and no
query builds columns. Version 6, the one written, holds a year's documents
in id order and front-codes the ids, so that they deflate to little, and
checks the payload with CRC-32: it catches a truncated or corrupt file, the
check's one job, and loads no cryptographic library. Only version 6 loads:
an index is derived data, so a file of another version is rebuilt from its
corpus.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from collections import Counter, defaultdict
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from operator import and_, eq, lt, ne, or_
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
from .query import And, AtLeastK, Or, Query, Term, query_vocabulary

_MAGIC = b"LXDX"
_VERSION = 6
# Magic, version, payload length and the payload's CRC-32.
_HEADER = struct.Struct("<4sHQI")
# A payload starts with the byte length of its JSON header.
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
    kept apart, as a file's deflated id stream, since no query reads them."""

    def __init__(self, lexicon: Lexicon, min_year: int, max_year: int,
                 marks: Iterable[Mark]):
        terms = lexicon.terms()
        # IndexBuilder.finish passes the marks it has gathered.
        gathered = marks if type(marks) is _Gathered else _Gathered(marks)
        self._init(lexicon, terms, min_year, max_year, *gathered.finish(len(terms), unique=True))

    def _init(self, lexicon: Lexicon, terms: tuple[str, ...], min_year: int, max_year: int,
              parts: Iterable[tuple], ids: bytes | None, path=None) -> YearTermIndex:
        """This index over the vocabulary *terms*, made of one part a year (year, document
        count, category table, rows, its bytes of each column), the years strictly ascending
        integers within *min_year*-*max_year*, and of *ids*, the deflated id stream of a file
        (see :func:`save_index`), or None for a scan, which keeps no ids; *path* names the
        file a loaded index was read from. Each year is placed on byte-aligned bits of the
        joined columns."""
        _check_year_range(min_year, max_year)
        chunks, spans, start = [[] for _ in terms], [], 0
        for year, n, table, rows, columns in parts:
            for chunk, column in zip(chunks, columns):
                chunk.append(column)
            spans.append((year, _Year(n, start, table, rows)))
            start += 8 * ((n + 7) // 8)
        self._columns = tuple(int.from_bytes(b"".join(chunk), "little") for chunk in chunks)
        self._ids, self._path = ids, path
        self._last = (None, 0)  # the last query evaluated here and its posting (see _posting)
        last = min_year - 1
        for k, (year, _) in enumerate(spans):
            if type(year) is not int or not min_year <= year <= max_year:
                raise IndexBuildError(f"document {_stream_ids(ids, spans)[k][0]!r}: year "
                                      f"{_shown(year)} outside allowed range "
                                      f"{_shown(min_year)}-{_shown(max_year)}")
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

    def doc_marks(self) -> Iterator[Mark]:
        """All (doc_id, year, bitmask, categories) rows, ordered by id
        within each year, as the documents are."""
        for (year, y), ids in zip(self._by_year.items(), self._doc_ids()):
            columns = [_in_year(col, y) for col in self._columns]
            yield from zip(ids, repeat(year), _transposed(columns, y.n),
                           map(y.table.__getitem__, y.rows))

    def _doc_ids(self) -> tuple[tuple[str, ...], ...]:
        """Each year's document ids, ascending, decoded from the id stream
        and checked against this index's years; a scan has none."""
        if self._ids is None:
            raise IndexBuildError("a corpus scan keeps no document ids")
        return _decoded(self._path, _stream_ids, self._ids, tuple(self._by_year.items()))


def _check_year_range(min_year: int, max_year: int) -> None:
    if type(min_year) is not int or type(max_year) is not int:
        raise IndexBuildError(f"year range {min_year!r}-{max_year!r}: a year is not an integer")
    if min_year > max_year:
        raise IndexBuildError(f"year range {_shown(min_year)}-{_shown(max_year)}: "
                              "the first year is after the last")


def _shown(year) -> str:
    """*year*, a caller's year or year bound, as a message shows it; an int
    too long to print is named for what it is."""
    try:
        return repr(year)
    except ValueError:
        return f"<an {long_integer()}>"


def _check_unique(ids_by_year: Iterable[Sequence[str]]) -> None:
    """Refuse an id that two documents share, naming the smallest such."""
    ids = list(chain.from_iterable(ids_by_year))
    if len(set(ids)) != len(ids):
        ids.sort()  # a repeat is an equal neighbour
        twice = next(compress(ids, map(eq, ids, islice(ids, 1, None))))
        raise IndexBuildError(f"duplicate document id {twice!r}")


def _masks_fit(masks: Sequence, width: int) -> bool:
    """Whether each of *masks* is an int of *width* bits at most, not
    negative, as :func:`_transposed` needs; three C passes, no Python loop."""
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
        # The corpus reader checks these types; a Document built in code may
        # hold others.
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

    def finish(self, width: int, unique: bool = False) -> tuple[list[tuple], bytes | None]:
        """Each year's part over a vocabulary of *width* entries, years ascending. With
        *unique*, a year's documents go by id, an id two documents share is refused, and
        the ids come as a file's deflated id stream: a JSON list of each year's
        :func:`_front_coded` ids. Without, for a scan, they go as they came, with no ids."""
        parts = []
        if unique:  # Coded year by year, so that one year's lists at most are held at once.
            deflate = zlib.compressobj(9)  # 10% off the id stream of level 6, for 0.2 ms
            stream = [deflate.compress(b"[")]
        for k, (year, (ids, masks, seen, rows)) in enumerate(sorted(self._years.items())):
            if not _masks_fit(masks, width):
                doc_id, mask = next((d, m) for d, m in zip(ids, masks)
                                    if not _masks_fit((m,), width))
                raise IndexBuildError(f"document {doc_id!r}: term bitmask {mask!r} is not "
                                      f"an integer within the {width}-term vocabulary")
            table = tuple(sorted(seen))
            rank = list(map({cats: r for r, cats in enumerate(table)}.__getitem__, seen))
            ranks = list(map(rank.__getitem__, rows))
            if unique:
                order = sorted(range(len(ids)), key=ids.__getitem__)
                pair = json.dumps(_front_coded(map(ids.__getitem__, order)), separators=(",", ":"))
                stream.append(deflate.compress(b"," * (k > 0) + pair.encode("utf-8")))
                masks, ranks = [masks[i] for i in order], [ranks[i] for i in order]
            # Year by year: one bit string of all years would hold every mask as text.
            size = (len(masks) + 7) // 8
            parts.append((year, len(masks), table, array(_row_type(len(table)), ranks),
                          [col.to_bytes(size, "little") for col in _transposed(masks, width)]))
        if not unique:
            return parts, None
        _check_unique(ids for ids, *_ in self._years.values())
        stream.append(deflate.compress(b"]") + deflate.flush())
        return parts, b"".join(stream)


def _transposed(rows: Sequence[int], width: int) -> list[int]:
    """The bit matrix of *rows*, ints of *width* bits at most, read by
    column: for each bit *j* below *width*, the int whose bit *i* is bit *j*
    of row *i*. It is its own inverse: a year's masks give its posting
    columns, and the columns, with the year's document count for *width*,
    give back the masks."""
    if not rows:
        return [0] * width
    # Each row as a fixed-width binary string, all rows in one string;
    # reversed, the string holds the last row first and bit j of every row
    # at positions j, j+width, ...
    bits = "".join(map(format, rows, repeat(f"0{width}b")))[::-1]
    return [int(bits[j::width], 2) for j in range(width)]


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
        members = q.members if isinstance(q, AtLeastK) else (q.term,)
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
        self._vocab = _CompiledVocab({e.term: (e.term, e.case_sensitive) for e in lexicon.entries},
                                     AtLeastK(1, terms) if terms else None)
        self._marks = _Gathered()

    def add(self, doc: Document) -> None:
        doc_id, year, text, cats = doc
        self._check_year(doc_id, year)
        self._marks.add(doc_id, year, self._vocab.mask(doc_id, text), cats)

    def add_all(self, corpus: Iterable[Document]) -> None:
        for doc in corpus:
            self.add(doc)

    def merge(self, other: "IndexBuilder") -> None:
        """Add *other*'s documents, or none where a year of one is outside this
        builder's range; an id both hold is reported by :meth:`finish`."""
        if other.lexicon is not self.lexicon and other.lexicon != self.lexicon:
            raise IndexBuildError("cannot merge builders with different lexicons")
        for doc_id, year, *_ in other._marks.marks():
            self._check_year(doc_id, year)
        for mark in other._marks.marks():
            self._marks.add(*mark)

    def _check_year(self, doc_id: str, year: int) -> None:
        # A year of another type than int is refused by _Gathered.add.
        if type(year) is int and not self.min_year <= year <= self.max_year:
            raise IndexBuildError(f"document {doc_id!r}: year {_shown(year)} outside allowed "
                                  f"range {_shown(self.min_year)}-{_shown(self.max_year)}")

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
        raise UnknownYearError(f"no documents in year {_shown(year)}")
    return y


def _posting(index: YearTermIndex, q: Query) -> int:
    """The index-wide column of the documents satisfying *q*. The index keeps
    the last query evaluated on it, by identity, with its posting, so a query
    asked of every year in turn is walked once; a query naming a term the
    index lacks replaces nothing."""
    last = index._last  # read once: another thread may replace it
    if last[0] is not q:
        last = index._last = (q, _walk(index._columns, index.term_bit, q))
    return last[1]


def _walk(cols: Sequence[int], bit: Callable[[str], int], q: Query) -> int:
    """The column of the documents satisfying *q*, each term's in *cols* at
    *bit*(term). Every term is looked up, so an unknown one raises."""
    if isinstance(q, Term):
        return cols[bit(q.term)]
    if isinstance(q, Or):
        return reduce(or_, [_walk(cols, bit, p) for p in q.parts])
    if isinstance(q, And):
        return reduce(and_, [_walk(cols, bit, p) for p in q.parts])
    if isinstance(q, AtLeastK):
        if q.k == 1:
            return reduce(or_, [cols[bit(m)] for m in q.members])
        # reach[j]: documents holding at least j + 1 of the members seen so far
        reach = [0] * q.k
        for col in map(cols.__getitem__, map(bit, q.members)):
            for j in range(q.k - 1, 0, -1):
                reach[j] |= reach[j - 1] & col
            reach[0] |= col
        return reach[-1]
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
    index answers *q* exactly and no other query. Such an index keeps no
    ids and cannot be saved. Documents are checked as by :meth:`IndexBuilder.add`,
    in any year."""
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


def _skew(year: int, posting: int, table: CategoryTable, rows: Sequence[int]) -> CategorySkew:
    """Tally the documents of *year*, given as the posting column of the
    query's matches, the category table and each document's row in it;
    a document listing a category twice counts twice."""
    # The posting's binary digits, reversed to go document by document and
    # made the bytes 0 and 1, pick the matches' rows.
    bits = format(posting, f"0{len(rows)}b")[::-1].encode().translate(
        bytes.maketrans(b"01", b"\0\1"))
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
    """Write *index* as a version 6 file: the JSON header, then per year of
    n documents, by id, its term columns, ceil(n/8) bytes each, and the n
    category rows, one, two or four bytes each as the table has up to 2**8,
    2**16 or more rows; then the id stream the index holds, a loaded file's
    as that file deflated it. It checks only a loaded file's ids, as
    ``doc_marks()`` does: no index holds what :func:`load_index` refuses, or
    refuses where the ids are used."""
    if index._ids is None:
        raise IndexBuildError("an index over a query's terms (a corpus scan) cannot be saved")
    if index._path is not None:
        index._doc_ids()
    years = []
    regions: list[bytes] = []
    for year, y in index._by_year.items():
        size = (y.n + 7) // 8
        years.append({"year": year, "docs": y.n, "categories": [list(cats) for cats in y.table]})
        regions.append(b"".join(_in_year(col, y).to_bytes(size, "little")
                                for col in index._columns))
        regions.append(_little_endian(y.rows).tobytes())
    header = json.dumps({
        "format": _FORMAT,
        "lexicon": lexicon_to_dict(index.lexicon),
        "min_year": index.year_range[0],
        "max_year": index.year_range[1],
        "years": years,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # The header, a year's columns (nearly empty or noisy bit strings) and its category
    # rows (close to random bytes) deflate best apart: each region ends a deflate block,
    # so it gets Huffman tables of its own, and Z_FILTERED prefers literals to the short
    # matches that cost more than they save in such bytes. On 4,000-document benchmark
    # corpora (bench/corpora.py, seeds 3, 7, 11 and 23; Python 3.11.7, zlib 1.2.13) the
    # two make this stream 14.0-14.6% smaller than one level-6 run on a sparse corpus and
    # 11.2-11.9% on a dense one, for under 1 ms more deflate, and either alone saves at
    # most half as much; below about 200 documents the block headers cost a few dozen
    # bytes more than they save. Level 9 takes three to five times as long here for at
    # most 5.5% fewer bytes.
    deflate = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL,
                               zlib.Z_FILTERED)
    blob = b"".join(deflate.compress(region) + deflate.flush(zlib.Z_BLOCK)
                    for region in [_JSON_LENGTH.pack(len(header)) + header, *regions]) \
        + deflate.flush() + index._ids
    head = _HEADER.pack(_MAGIC, _VERSION, len(blob), zlib.crc32(blob))
    Path(path).write_bytes(head + blob)


def load_index(path) -> YearTermIndex:
    """Read a version 6 index file, the one :func:`save_index` writes; a
    file of another version is an IndexVersionError. Anything malformed, the
    embedded lexicon included, is an IndexFileError naming *path*; the ids
    are checked where they are used."""
    with open(path, "rb") as file:
        data = file.read()
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise IndexFileError(f"{path}: not an index file")
    _, version, length, check = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise IndexVersionError(f"{path}: unsupported index version {version} (supported: "
                                f"{_VERSION}); rebuild the file with 'lexdrift index'")
    blob = data[_HEADER.size:]
    if len(blob) != length or zlib.crc32(blob) != check:
        raise IndexChecksumError(f"{path}: checksum mismatch (truncated or corrupt)")
    return _decoded(path, _decode, blob, path)


def _decoded(path, decode: Callable, *args):
    """*decode*(*args*), of the file *path*, whose malformed payload is an
    IndexFileError naming it."""
    try:
        return decode(*args)
    except KeyError as exc:
        raise IndexFileError(f"{path}: malformed payload (no {exc} field)") from None
    except (zlib.error, TypeError, ValueError, DataError) as exc:
        raise IndexFileError(f"{path}: malformed payload ({exc})") from None


def _decode(blob: bytes, path) -> YearTermIndex:
    """A payload, each column read straight into an integer: each year's
    document count in the header, and the ids in a second deflated stream,
    left to be decoded and checked where used. A malformed payload
    raises KeyError, TypeError, ValueError, zlib.error or DataError."""
    payload, stream = _inflate(blob)
    if not stream:
        raise ValueError("no id stream after the payload")
    if len(payload) < _JSON_LENGTH.size:
        raise ValueError("no header length")
    (size,) = _JSON_LENGTH.unpack_from(payload)
    offset = _JSON_LENGTH.size + size
    if offset > len(payload):
        raise ValueError(f"header length {size} runs past the payload")
    doc = _json(payload[_JSON_LENGTH.size:offset])
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError("not a lexdrift index payload")
    lexicon = lexicon_from_dict(doc["lexicon"])
    entries = doc["years"]
    if type(entries) is not list:
        raise ValueError("'years' is not a list")
    terms = lexicon.terms()
    width, parts = len(terms), []
    for k, entry in enumerate(entries):
        if type(entry) is not dict:
            raise ValueError(f"'years' entry {k} is not an object")
        year, table, n = entry["year"], entry["categories"], entry["docs"]
        if type(n) is not int:
            raise ValueError(f"the document count of {year} is not an integer")
        if type(table) is not list or not all(type(row) is list for row in table):
            raise ValueError(f"the category table of {year} is not a list of lists")
        _check_categories(chain.from_iterable(table), year)
        table = tuple(map(tuple, table))
        if not all(map(lt, table, table[1:])):  # a strict order keeps a re-save canonical
            raise ValueError(f"the category-table rows of {year} are not strictly ascending")
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
    return YearTermIndex.__new__(YearTermIndex)._init(lexicon, terms, doc["min_year"],
                                                      doc["max_year"], parts, stream, path)


def _stream_ids(stream: bytes, spans: Sequence[tuple[int, _Year]]) -> tuple[tuple[str, ...], ...]:
    """The ids of a file, a deflated *stream* of their own, checked for the
    index of *spans*, its (year, _Year) pairs: for each year the pair of
    lists :func:`_front_decoded` decodes, and no id in two years."""
    text, rest = _inflate(stream)
    if rest:
        raise ValueError(f"{len(rest)} bytes after the id stream")
    listed = _json(text)
    if type(listed) is not list or len(listed) != len(spans) \
            or not all(type(pair) is list and len(pair) == 2 for pair in listed):
        raise ValueError(f"the ids are not a pair of lists for each of the {len(spans)} years")
    ids = [_front_decoded(year, y.n, *pair) for (year, y), pair in zip(spans, listed)]
    _check_unique(ids)
    return tuple(map(tuple, ids))


def _front_coded(ids: Iterable[str]) -> list[list]:
    """Strictly ascending *ids* front-coded: the length of the longest prefix
    each shares with the id before it (the first, with ""), and the rests."""
    shared, rests, last = [], [], ""
    for doc_id in ids:
        # Where the two first differ, else the shorter one's length.
        n = next(compress(count(), map(ne, last, doc_id)), min(len(last), len(doc_id)))
        shared.append(n)
        rests.append(doc_id[n:])
        last = doc_id
    return [shared, rests]


def _front_decoded(year: int, n: int, shared, rests) -> list[str]:
    """The ids of the *n* documents of *year* from the lists *shared* and
    *rests* of :func:`_front_coded`, checked so that they code to the same
    lists again: shared lengths ints from 0 to the length of the id before,
    rests strings, and, id by id, each id after the one before it and its
    shared length the longest."""
    if type(shared) is not list or type(rests) is not list or not len(shared) == len(rests) == n:
        raise ValueError(f"the id lists of {year} are not two lists of its {n} documents")
    if set(map(type, shared)) - {int}:
        raise ValueError(f"a shared length in {year} is not an integer")
    _check_strings(rests, "the rest of a document id", year)
    ids, last = [], ""
    for k, rest in zip(shared, rests):
        if not 0 <= k <= len(last):
            raise ValueError(f"a shared length in {year} is negative or past the id before it")
        # After the id before it, and sharing no longer prefix with it, exactly
        # when the rest starts after that id's next character.
        if rest[:1] <= last[k:k + 1] and ids:
            raise ValueError(f"a shared length in {year} is not the longest"
                             if rest[:1] == last[k:k + 1] != "" else
                             f"the ids of {year} are not strictly ascending")
        ids.append(last := last[:k] + rest)
    return ids


def _inflate(data: bytes) -> tuple[bytes, bytes]:
    """The first zlib stream of *data*, inflated, and the bytes after it."""
    inflate = zlib.decompressobj()
    inflated = inflate.decompress(data)
    if not inflate.eof:
        raise ValueError("a deflated stream does not end")
    return inflated, inflate.unused_data


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
        raise IndexBuildError(f"{what} in {_shown(year)} is not a string") from None


def _check_categories(values: Iterable, year: int) -> None:
    """Categories are printed, so they must be strings with no lone
    surrogate."""
    problem = lone_surrogate(_check_strings(values, "a category", year))
    if problem is not None:
        raise IndexBuildError(f"a category in {_shown(year)} holds a {problem}")
