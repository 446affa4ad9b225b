"""Immutable per-year index of lexicon-term evidence.

Each document is reduced at build time to a bitset over the lexicon
vocabulary (phrases included as ordinary entries), and ``finish`` turns each
year's bitsets into posting columns: one big integer per vocabulary entry,
whose bit *i* is set when document *i* of the year holds the entry. A year's
categories are a table of its distinct per-document category tuples, with
each document's row in that table. A boolean or at-least-k query or a
term's document frequency then costs a few big-integer operations and
popcounts per query node, and a category skew one pass over the matching
documents' rows, not one test per document; none of them is tabulated ahead
of time. The category table is known to this module alone: the category
skew of a query (:func:`category_skew`) is tallied here. Builds are
deterministic: document order and any partitioning of the corpus across
builders produce identical indexes. The finished index is immutable and
safe for concurrent readers.

A corpus scan (:func:`scan_index`) is a :class:`YearTermIndex` too, built
by the same matcher and the same per-year tables over the query's own terms
instead of the lexicon, so a scan also counts terms outside the lexicon.
:func:`eval_count` and :func:`category_skew` answer its query like any
index's. It tokenizes only the documents whose text could satisfy the query
on plain substrings, so its columns are exact for those documents alone: a
scan answers its own query, not another over the same terms.

Index files are a single binary container: magic, format version, payload
length and SHA-256 checksum, then a zlib-compressed payload. Version 2, the
one written, stores the columns themselves: a length-prefixed canonical JSON
header (lexicon, year range, and per year the document ids and the category
table), then each year's term columns and category rows as little-endian
bytes. A load decodes no per-document JSON rows, and no query builds
columns. Version 1 files, one JSON row per document, still load.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from collections import Counter
from functools import reduce
from itertools import chain, compress, product, repeat
from operator import and_, itemgetter, lt, or_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import Document, DEFAULT_MAX_YEAR, DEFAULT_MIN_YEAR, JOINERS, raw_tokens, tokenize
from .errors import (
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
_VERSION = 2
_HEADER = struct.Struct("<4sHQ32s")
# A version 2 payload starts with the byte length of its JSON header.
_JSON_LENGTH = struct.Struct("<I")
_FORMAT = "lexdrift.index"

# One mark per document: (doc_id, year, vocabulary bitmask, categories).
Mark = tuple[str, int, int, tuple[str, ...]]

# The distinct category tuples of a year's documents, sorted.
CategoryTable = tuple[tuple[str, ...], ...]


class _Year(NamedTuple):
    ids: tuple[str, ...]  # document i of the year, ascending
    columns: tuple[int, ...]  # one posting column per vocabulary entry
    table: CategoryTable
    rows: array  # document i's categories are table[rows[i]]


class YearTermIndex:
    """Per year, the document ids, one posting column per vocabulary entry
    and the category table with each document's row in it, so a query
    costs a few big-integer operations per node rather than a test per
    document."""

    def __init__(self, lexicon: Lexicon, min_year: int, max_year: int,
                 marks: Iterable[Mark]):
        terms = lexicon.terms()
        self._init(lexicon, terms, min_year, max_year, _years(marks, len(terms)))

    @classmethod
    def _from_columns(cls, lexicon: Lexicon, terms: tuple[str, ...], min_year: int,
                      max_year: int, years: dict[int, _Year]) -> YearTermIndex:
        """The index of ready columns over the vocabulary *terms*, *years*
        ascending."""
        index = cls.__new__(cls)
        index._init(lexicon, terms, min_year, max_year, years)
        return index

    def _init(self, lexicon: Lexicon, terms: tuple[str, ...], min_year: int,
              max_year: int, years: dict[int, _Year]) -> None:
        self._lexicon = lexicon
        self._min_year = min_year
        self._max_year = max_year
        self._terms = terms
        self._bit = {t: i for i, t in enumerate(terms)}
        self._by_year = years
        self._years = tuple(years)

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
        return sum(len(y.ids) for y in self._by_year.values())

    def total(self, year: int) -> int:
        y = self._by_year.get(year)
        return len(y.ids) if y else 0

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
        return y.columns[bit].bit_count() if y else 0

    def doc_marks(self) -> Iterator[Mark]:
        """All (doc_id, year, bitmask, categories) rows, ordered by id
        within each year."""
        for year, y in self._by_year.items():
            yield from zip(y.ids, repeat(year), _doc_masks(y.columns, len(y.ids)),
                           map(y.table.__getitem__, y.rows))


def _years(marks: Iterable[Mark], width: int) -> dict[int, _Year]:
    """Each year's table of *marks* over a vocabulary of *width* entries,
    years ascending and the documents of a year by id."""
    per_year: dict[int, list[Mark]] = {}
    for mark in marks:
        per_year.setdefault(mark[1], []).append(mark)
    years = {}
    for year in sorted(per_year):
        ms = sorted(per_year[year])
        years[year] = _Year(tuple(m[0] for m in ms), _columns([m[2] for m in ms], width),
                            *_category_rows([m[3] for m in ms], year))
    return years


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


def _category_rows(cats: Sequence[tuple[str, ...]], year: int) -> tuple[CategoryTable, array]:
    """The category table of *year*, given each document's categories, and
    each document's row in it."""
    try:
        table = tuple(sorted(set(cats)))
    except TypeError:
        # Strings hash and sort: a Document built in code may hold others.
        raise IndexBuildError(f"a category in {year} is not a string") from None
    row = {c: i for i, c in enumerate(table)}
    return table, array(_row_type(len(table)), map(row.__getitem__, cats))


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
    the gate fails cannot match *q*: its mask is 0, and :meth:`mask` need
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

    def mask(self, text: str) -> int:
        """The mask of a document of *text*, from its tokens. Where
        :attr:`gate` fails the text, the mask is 0 and need not be made."""
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
    first, n = toks[0], len(toks)
    for i in range(len(seq) - n + 1):
        if seq[i] == first and seq[i : i + n] == toks:
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
        terms = lexicon.terms()
        self._vocab = _CompiledVocab({e.term: (e.term, e.case_sensitive)
                                      for e in lexicon.entries}, AnyOf(terms) if terms else None)
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
        vocab = self._vocab
        self._marks.append((doc.id, doc.year, vocab.mask(doc.text) if vocab.gate(doc.text) else 0,
                            tuple(doc.categories)))

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


def build_index(corpus: Iterable[Document], lexicon: Lexicon) -> YearTermIndex:
    """Index a document sequence against a lexicon vocabulary."""
    builder = IndexBuilder(lexicon)
    builder.add_all(corpus)
    return builder.finish()


# Unused in the package; bench/run.py's masks_tested counter patches it.
def compile_predicate(index: YearTermIndex, q: Query) -> Callable[[int], bool]:
    """Turn a query into a predicate over document bitmasks, true where
    :func:`eval_count` counts the document: *q* compiled as for it, run on
    the mask's one-document columns. Raises UnindexedTermError when the
    query mentions vocabulary the index does not carry."""
    test, width = _compile(index.term_bit, q), len(index._terms)
    return lambda m: test([m >> j & 1 for j in range(width)]) == 1


def eval_count(index: YearTermIndex, q: Query, year: int) -> int:
    """Exact number of documents in *year* satisfying *q* (presence
    semantics, each document counted once)."""
    columns = _year(index, year).columns  # an unknown year is reported first
    return _plan(index, q)(columns).bit_count()


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
    return _skew(year, _plan(index, q)(y.columns), y.table, y.rows)


def _year(index: YearTermIndex, year: int) -> _Year:
    y = index._by_year.get(year)
    if y is None:
        raise UnknownYearError(f"no documents in year {year}")
    return y


def _plan(index: YearTermIndex, q: Query) -> Callable[[tuple[int, ...]], int]:
    """*q* compiled against the term table of *index*. The query node keeps
    it, so a query evaluated year after year resolves its names once; a
    query that names a term the index lacks keeps nothing."""
    plan = getattr(q, "_plan", None)
    if plan is None or plan[0] is not index._bit:
        plan = (index._bit, _compile(index.term_bit, q))
        object.__setattr__(q, "_plan", plan)
    return plan[1]


def _compile(bit: Callable[[str], int], q: Query) -> Callable[[tuple[int, ...]], int]:
    """*q* as a function of one year's posting columns, giving the column of
    the documents satisfying it; *bit* gives each term's column. Every term
    is looked up here, so an unknown one raises wherever it sits."""
    if isinstance(q, AtLeastK):
        bits, k = [bit(m) for m in q.members], q.k

        def at_least(cols: tuple[int, ...]) -> int:
            # reach[j]: documents holding at least j + 1 of the members seen so far
            reach = [0] * k
            for col in map(cols.__getitem__, bits):
                for j in range(k - 1, 0, -1):
                    reach[j] |= reach[j - 1] & col
                reach[0] |= col
            return reach[-1]
        return at_least
    op = and_ if isinstance(q, And) else or_
    bits, parts = [], []

    def gather(node: Query) -> None:
        # A node of q's operator, nested or not, gives its own operands, so
        # a chain of them costs one reduce.
        if isinstance(node, (Term, Phrase)):
            bits.append(bit(node.term if isinstance(node, Term) else node.text))
        elif isinstance(node, AnyOf) and op is or_:
            bits.extend(map(bit, node.members))
        elif isinstance(node, Or if op is or_ else And):
            for part in node.parts:
                gather(part)
        elif isinstance(node, (AnyOf, AtLeastK, And, Or)):
            parts.append(_compile(bit, node))
        else:
            raise TypeError(f"not a query node: {node!r}")
    gather(q)
    if bits:
        get = itemgetter(*bits)
        parts.append(get if len(bits) == 1 else lambda cols: reduce(op, get(cols)))
    return parts[0] if len(parts) == 1 else lambda cols: reduce(op, [p(cols) for p in parts])


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
    saved."""
    terms = tuple(sorted(query_vocabulary(q)))
    case_sensitive = {e.term: e.case_sensitive for e in lexicon.entries}
    found = {t: lexicon.resolve(t) for t in terms}
    vocab = _CompiledVocab({t: (f[0], case_sensitive[f[0]]) if len(f) == 1 else (t, False)
                            for t, f in found.items()}, q)
    gate, mask = vocab.gate, vocab.mask
    years = _years([(doc_id, year, mask(text) if gate(text) else 0, tuple(cats))
                    for doc_id, year, text, cats in corpus], len(terms))
    return YearTermIndex._from_columns(lexicon, terms, min(years, default=DEFAULT_MIN_YEAR),
                                       max(years, default=DEFAULT_MAX_YEAR), years)


def eval_count_scan(corpus: Iterable[Document], lexicon: Lexicon, q: Query,
                    year: int) -> int:
    """:func:`eval_count` by one pass over *corpus* (see
    :func:`scan_index`); 0 for a year with no documents."""
    index = scan_index((doc for doc in corpus if doc.year == year), lexicon, q)
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
    """Write *index* as a version 2 file: the JSON header, then per year of
    n documents its term columns, ceil(n/8) bytes each, and the n category
    rows, one, two or four bytes each as the table has up to 2**8, 2**16 or
    more rows."""
    if index._terms != index.lexicon.terms():
        raise IndexBuildError("an index over a query's terms (a corpus scan) cannot be saved")
    years = []
    columns: list[bytes] = []
    for year, y in index._by_year.items():
        # What the loader would refuse is not written: a category built in
        # code, not read from a corpus, may be no string or hold a lone
        # surrogate.
        try:
            _check_categories(chain.from_iterable(y.table), f"a category in {year}")
        except ValueError as exc:
            raise IndexBuildError(f"cannot save the index: {exc}") from None
        size = (len(y.ids) + 7) // 8
        years.append({"year": year, "ids": list(y.ids),
                      "categories": [list(cats) for cats in y.table]})
        columns += [col.to_bytes(size, "little") for col in y.columns]
        columns.append(_little_endian(y.rows).tobytes())
    header = json.dumps({
        "format": _FORMAT,
        "lexicon": lexicon_to_dict(index.lexicon),
        "min_year": index.year_range[0],
        "max_year": index.year_range[1],
        "years": years,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Level 6: level 9 compresses four to six times slower for under 2% fewer bytes.
    blob = zlib.compress(b"".join([_JSON_LENGTH.pack(len(header)), header, *columns]), 6)
    head = _HEADER.pack(_MAGIC, _VERSION, len(blob), _sha256(blob))
    Path(path).write_bytes(head + blob)


def load_index(path) -> YearTermIndex:
    """Read a version 1 or 2 index file. Anything malformed is an
    IndexFileError naming *path*."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise IndexFileError(f"{path}: not an index file")
    magic, version, length, digest = _HEADER.unpack(data[: _HEADER.size])
    if version not in _DECODERS:
        raise IndexVersionError(
            f"{path}: unsupported index version {version} "
            f"(supported: {', '.join(map(str, _DECODERS))})"
        )
    blob = data[_HEADER.size:]
    if len(blob) != length or _sha256(blob) != digest:
        raise IndexChecksumError(f"{path}: checksum mismatch (truncated or corrupt)")
    try:
        return _DECODERS[version](zlib.decompress(blob))
    except KeyError as exc:
        raise IndexFileError(f"{path}: malformed payload (no {exc} field)") from None
    except (zlib.error, TypeError, ValueError) as exc:
        raise IndexFileError(f"{path}: malformed payload ({exc})") from None


def _decode_v1(payload: bytes) -> YearTermIndex:
    """A version 1 payload, one JSON row per document, checked and then
    built like a fresh index. A malformed payload raises KeyError,
    TypeError or ValueError."""
    doc = _json_object(payload)
    lexicon = lexicon_from_dict(doc["lexicon"])
    marks = [(i, y, m, tuple(c)) for i, y, m, c in doc["docs"]]
    ids, years, masks, cats = zip(*marks) if marks else ((), (), (), ())
    _check_years(doc["min_year"], doc["max_year"], years)
    _check_strings(ids, "a document id")
    _check_categories(chain.from_iterable(cats), "a category")
    if masks and (set(map(type, masks)) - {int} or min(masks) < 0
                  or max(masks) >> len(lexicon.terms())):
        raise ValueError("a term bitmask is not an integer within the vocabulary")
    return YearTermIndex(lexicon, doc["min_year"], doc["max_year"], marks)


def _decode_v2(payload: bytes) -> YearTermIndex:
    """A version 2 payload, each column read straight into an integer. A
    malformed payload raises KeyError, TypeError or ValueError."""
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
    years = [entry["year"] for entry in entries]
    _check_years(doc["min_year"], doc["max_year"], years)
    _check_ascending(years, "the years")
    width = len(lexicon.terms())
    by_year = {}
    for year, entry in zip(years, entries):
        ids, table = entry["ids"], entry["categories"]
        if type(ids) is not list or type(table) is not list or not all(
                type(row) is list for row in table):
            raise ValueError(f"the ids or the category table of {year} are not lists")
        _check_strings(ids, f"a document id in {year}")
        _check_categories(chain.from_iterable(table), f"a category in {year}")
        table = tuple(map(tuple, table))
        # A strict order keeps doc_marks() ordered by id and a re-save canonical.
        _check_ascending(ids, f"the ids of {year}")
        _check_ascending(table, f"the category-table rows of {year}")
        n = len(ids)
        if not n:
            raise ValueError(f"year {year} has no documents")
        step = (n + 7) // 8
        rows = array(_row_type(len(table)))
        end = offset + width * step + n * rows.itemsize
        if end > len(payload):
            raise ValueError(f"the columns of {year} are cut short")
        cols = [int.from_bytes(payload[o:o + step], "little")
                for o in range(offset, offset + width * step, step)]
        if max(map(int.bit_length, cols), default=0) > n:
            raise ValueError(f"a column of {year} is wider than its {n} documents")
        rows.frombytes(payload[end - n * rows.itemsize:end])
        rows = _little_endian(rows)
        offset = end
        if max(rows) >= len(table):
            raise ValueError(f"a document of {year} has no row in its category table")
        if len(set(rows)) != len(table):
            raise ValueError(f"a category-table row of {year} has no documents")
        by_year[year] = _Year(tuple(ids), tuple(cols), table, rows)
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} bytes after the last column")
    return YearTermIndex._from_columns(lexicon, lexicon.terms(), doc["min_year"],
                                       doc["max_year"], by_year)


_DECODERS = {1: _decode_v1, 2: _decode_v2}


def _sha256(blob: bytes) -> bytes:
    # Imported here, so that a corpus scan, which reads and writes no index
    # file, does not load it.
    import hashlib

    return hashlib.sha256(blob).digest()


def _json_object(data: bytes) -> dict:
    """The JSON object of an index payload, checked to be one."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:  # the rest: an integer too long to convert
        raise ValueError(long_integer()) from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError("not a lexdrift index payload")
    return doc


def _check_years(min_year, max_year, years: Iterable) -> None:
    if set(map(type, chain((min_year, max_year), years))) - {int}:
        raise ValueError("a year is not an integer")


def _check_strings(values: Iterable, what: str) -> None:
    if set(map(type, values)) - {str}:
        raise ValueError(f"{what} is not a string")


def _check_categories(values: Iterable, what: str) -> None:
    """Categories are printed, so they must be strings with no lone
    surrogate."""
    values = list(values)
    _check_strings(values, what)
    problem = lone_surrogate("".join(values))
    if problem is not None:
        raise ValueError(f"{what} holds a {problem}")


def _check_ascending(values: Sequence, what: str) -> None:
    if not all(map(lt, values, values[1:])):
        raise ValueError(f"{what} are not strictly ascending")
