"""Arbitrary input to every reader of user data ends in a DataError or an
OSError, which the CLI turns into exit 1 or 2 with one line; anything else
would be a traceback."""

from __future__ import annotations

import json
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import (
    DataError,
    builtin_lexicon,
    import_counts,
    iter_corpus,
    load_index,
    load_lexicon,
    parse_query,
)
from lexdrift.lexicon import lexicon_to_dict

from index_file import framed, front_coded, id_stream, packed

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _json_with(keys: tuple[str, ...], *values) -> st.SearchStrategy[dict]:
    """Objects whose keys are mostly the expected ones, with values either
    of a plausible kind or anything JSON."""
    return st.dictionaries(
        st.sampled_from(keys) | st.text(max_size=4), st.one_of(*values, _JSON),
        max_size=len(keys) + 1,
    )


def _survives(read, data: bytes, name: str = "input") -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            read(path)
        except (DataError, OSError):
            pass


# ------------------------------------------------------------------ corpus

_RECORD = _json_with(
    ("id", "year", "text", "categories"),
    st.text(max_size=8), st.integers(1990, 2110),
    st.lists(st.text(max_size=4) | _JSON, max_size=3),
)
_CORPUS_LINE = (
    _RECORD.map(lambda r: json.dumps(r).encode()) | _JSON.map(lambda v: json.dumps(v).encode())
    | st.binary(max_size=40)
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_CORPUS_LINE, max_size=6), on_error=st.sampled_from(("abort", "skip")))
def test_corpus_reader_raises_only_data_errors(lines, on_error):
    _survives(lambda p: list(iter_corpus(p, on_error=on_error)), b"\n".join(lines))


# ------------------------------------------------------------------- index

# An index file's payload is two zlib streams: a u32 header length, a JSON
# header and the column bytes, then the ids.
_LEXICON = lexicon_to_dict(builtin_lexicon())
_PAYLOAD = _json_with(
    ("format", "lexicon", "min_year", "max_year", "years"),
    st.just("lexdrift.index"), st.just(_LEXICON), st.integers(1990, 2110),
    st.lists(
        _json_with(("year", "docs", "categories"), st.integers(1990, 2110), st.integers(-2, 20),
                   st.lists(st.lists(st.text(max_size=4), max_size=2), max_size=3))
        | _JSON,
        max_size=4,
    ),
)


_INDEX_FILE = (
    st.binary(max_size=80)
    | st.binary(max_size=80).map(framed)
    | st.builds(lambda payload, ids: framed(zlib.compress(payload) + zlib.compress(ids)),
                st.binary(max_size=80), st.binary(max_size=20))
    | st.builds(lambda v, columns, ids: framed(packed(json.dumps(v).encode(), columns,
                                                      id_stream(ids))),
                _PAYLOAD | _JSON, st.binary(max_size=60), _JSON)
)


@settings(max_examples=200, deadline=None)
@given(data=_INDEX_FILE)
def test_index_reader_raises_only_data_errors(data):
    _survives(load_index, data, "input.idx")


# Most headers are well formed, so that most files reach the column checks,
# and their columns mostly fit the header before they are cut short or
# extended. Each year's count of ids is in the header, and the ids in the
# second stream, mostly well formed, whose checks run when the ids are
# first read.
_WIDTH = len(builtin_lexicon().terms())
_YEAR = st.fixed_dictionaries({
    "year": st.integers(2019, 2023),
    "ids": st.lists(st.text(max_size=3), max_size=12, unique=True).map(sorted),
    "categories": st.lists(st.lists(st.sampled_from(("a", "b")), max_size=2), max_size=3,
                           unique_by=tuple).map(sorted),
})


@st.composite
def _header(draw) -> dict:
    """A well-formed header, its years' ids still in it, or one with a
    single field replaced by anything JSON."""
    years = sorted(draw(st.lists(_YEAR, max_size=3)), key=lambda y: y["year"])
    header = {"format": "lexdrift.index", "lexicon": _LEXICON, "min_year": 1990,
              "max_year": 2100, "years": years}
    where = draw(st.sampled_from((None, None, None, None, "format", "min_year", "years",
                                  "year", "ids", "categories", "id")))
    if where in header:
        header[where] = draw(_JSON)
    elif where == "id" and years and years[0]["ids"]:
        years[0]["ids"][0] = draw(_JSON)
    elif where in ("year", "ids", "categories") and years:
        draw(st.sampled_from(years))[where] = draw(_JSON)
    return header


@st.composite
def _fitting_columns(draw, header) -> bytes:
    """Column bytes of the size *header* implies, if it is well formed
    enough to say: each year's term columns within its documents, and its
    documents' rows mostly within its category table, or else random
    bytes."""
    try:
        years = [(len(y["ids"]), len(y["categories"])) for y in header["years"]]
    except (KeyError, TypeError):
        return draw(st.binary(max_size=64))
    if draw(st.sampled_from((False, False, False, True))):
        return draw(st.binary(max_size=256))
    out = b""
    for n, rows in years:
        step = (n + 7) // 8
        # now and then a term column may set a bit past the year's documents
        bits = 8 * step if draw(st.sampled_from((False,) * 5 + (True,))) else n
        cols = [draw(st.integers(0, (1 << bits) - 1)) for _ in range(_WIDTH)]
        out += b"".join(col.to_bytes(step, "little") for col in cols)
        # now and then a document's row may lie past the table
        top = max(rows - 1, 0) + draw(st.sampled_from((0,) * 5 + (1,)))
        out += bytes(draw(st.integers(0, top)) for _ in range(n))
    return out


@st.composite
def _files(draw) -> bytes:
    header = draw(_header())
    columns = draw(_fitting_columns(header))
    columns += draw(st.sampled_from((b"", b"", b"", b"\0", b"\xff\xff")))
    columns = columns[:len(columns) - draw(st.sampled_from((0, 0, 0, 1, 3)))]
    text, ids = _split_ids(header)
    extra_length = draw(st.sampled_from((0, 0, 0, -1, 1, 1 << 20)))
    stream = draw(_id_streams(ids))
    if draw(st.sampled_from((False,) * 7 + (True,))):
        # A first stream too short to hold the header's length.
        return framed(zlib.compress(text[:3]) + stream)
    return framed(packed(text, columns, stream, extra_length))


def _split_ids(header: dict) -> tuple[bytes, list]:
    """*header* as a file holds it, each year's ids replaced by their count
    where they are a list, and the ids taken out."""
    years = header.get("years")
    if type(years) is not list or not all(type(y) is dict for y in years):
        return json.dumps(header).encode(), []
    ids = [year.get("ids") for year in years]
    header = dict(header, years=[{k: v for k, v in year.items() if k != "ids"}
                                 | {"docs": len(i) if type(i) is list else i}
                                 for year, i in zip(years, ids)])
    return json.dumps(header).encode(), ids


def _id_streams(ids: list) -> st.SearchStrategy[bytes]:
    """The second stream of a file holding *ids*, each year's front-coded
    where they are strings, mostly well formed, else missing, cut short,
    followed by bytes, or anything."""
    if type(ids) is list:
        ids = [front_coded(i) if type(i) is list and all(type(d) is str for d in i) else i
               for i in ids]
    good = id_stream(ids)
    return st.sampled_from((good,) * 4 + (b"", good[:-3], good + b"\0")) \
        | _JSON.map(id_stream) | st.binary(max_size=20)


def _read_ids(path) -> None:
    """Load *path*, then read its ids, which a load leaves for later."""
    list(load_index(path).doc_marks())


@settings(max_examples=300, deadline=None)
@given(data=_files() | st.builds(lambda payload, ids: framed(zlib.compress(payload) + ids),
                                 st.binary(max_size=80), _JSON.flatmap(_id_streams)))
def test_index_reader_raises_only_data_errors_when_its_ids_are_read(data):
    _survives(_read_ids, data, "input.idx")


# ------------------------------------------------------------ count table

_CSV_FIELD = (
    st.sampled_from(["series", "year", "matches", "total", "group4", "2023", "0",
                     "-1", "10", " 5 ", '"', '"a,b"', "1e3", "é"])
    | st.text(max_size=6)
)
_CSV_LINE = (
    st.lists(_CSV_FIELD, max_size=5).map(lambda f: ",".join(f).encode())
    | st.binary(max_size=30)
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_CSV_LINE, max_size=6), header=st.booleans())
def test_count_table_reader_raises_only_data_errors(lines, header):
    if header:
        lines = [b"series,year,matches,total", *lines]
    _survives(import_counts, b"\n".join(lines), "counts.csv")


# ----------------------------------------------------------------- lexicon

_ENTRY = _json_with(
    ("term", "role", "case_sensitive"),
    st.text(max_size=8), st.sampled_from(("adjective", "adverb", "control", "disclosure")),
    st.booleans(),
)
_LEXICON_DOC = _json_with(
    ("name", "entries", "groups"),
    st.text(max_size=4), st.lists(_ENTRY, max_size=4),
    st.dictionaries(st.sampled_from(("strong", "medium", "weak")),
                    st.lists(st.text(max_size=8), max_size=3), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=60)
       | (_LEXICON_DOC | _JSON).map(lambda v: json.dumps(v).encode()))
def test_lexicon_reader_raises_only_data_errors(data):
    _survives(load_lexicon, data, "lexicon.json")


# ------------------------------------------------------------------- query

_QUERY_PIECES = ("any", "atleast", "(", ")", ",", "and", "OR", '"', "0", "2",
                 "strong", "intricate", "large language model", "zebra", "¾",
                 "gpt-4", "’", "-", "é")


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=30)
       | st.lists(st.sampled_from(_QUERY_PIECES), max_size=12).map(" ".join))
def test_query_parser_raises_only_data_errors(text):
    try:
        parse_query(text, builtin_lexicon())
    except DataError:
        pass
