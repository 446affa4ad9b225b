from __future__ import annotations

import io
import json
import pickle
import string
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import (
    CorpusFormatError,
    CountsFormatError,
    Document,
    Term,
    builtin_lexicon,
    eval_count_scan,
    import_counts,
    load_corpus,
)
from lexdrift.corpus import iter_corpus


def _jsonl(*records) -> io.StringIO:
    return io.StringIO("".join(json.dumps(r) + "\n" for r in records))


_LEXICON = builtin_lexicon()


def _scan_presence(text: str, vocabulary) -> set[str]:
    """The *vocabulary* terms that a scan finds in a one-document corpus
    holding *text*, whether or not the lexicon has them."""
    doc = [Document(id="d1", year=2020, text=text)]
    return {t for t in vocabulary if eval_count_scan(doc, _LEXICON, Term(t), 2020)}


# ---------------------------------------------------------------- presence


def test_presence_direct():
    found = _scan_presence(
        "The intricate results are notable", {"intricate", "meticulous", "notable"}
    )
    assert found == {"intricate", "notable"}


def test_presence_whole_word_only():
    assert _scan_presence("intricately woven", {"intricate"}) == set()


def test_presence_phrase():
    found = _scan_presence("a large language model was used", {"large language model"})
    assert found == {"large language model"}


def test_presence_phrase_not_scattered():
    found = _scan_presence("large scale language of the model", {"large language model"})
    assert found == set()


def test_presence_case_insensitive():
    assert _scan_presence("INTRICATE work", {"intricate"}) == {"intricate"}


_WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@given(st.lists(_WORD, min_size=1, max_size=15), st.sets(_WORD, min_size=1, max_size=5),
       st.sets(_WORD, min_size=1, max_size=5))
def test_presence_distributes_over_vocab_union(words, v1, v2):
    text = " ".join(words)
    both = _scan_presence(text, v1 | v2)
    first = _scan_presence(text, v1)
    second = _scan_presence(text, v2)
    assert both == first | second


@given(st.lists(_WORD, min_size=1, max_size=15), _WORD, _WORD)
def test_presence_never_matches_substrings(words, term, affix):
    # glue the term onto an affix: the combined token must not match
    text = " ".join(words) + f" {affix}{term}{affix}x"
    found = _scan_presence(text, {term})
    assert found == ({term} if term in words else set())


@given(st.lists(_WORD, min_size=1, max_size=15), st.sets(_WORD, min_size=1, max_size=5))
def test_presence_case_invariant(words, vocab):
    text = " ".join(words)
    assert _scan_presence(text, vocab) == _scan_presence(text.upper(), vocab)


# ---------------------------------------------------------------- loading


def test_load_valid_records_in_order():
    docs = load_corpus(_jsonl(
        {"id": "a", "year": 2020, "text": "one"},
        {"id": "b", "year": 2021, "text": "two", "categories": ["social"]},
        {"id": "c", "year": 2022, "text": "three"},
    ))
    assert [d.id for d in docs] == ["a", "b", "c"]
    assert docs[1].categories == ("social",)
    assert docs[0].categories == ()


def test_load_bad_year_names_line():
    stream = io.StringIO(
        '{"id": "a", "year": 2020, "text": "x"}\n'
        '{"id": "b", "year": "20x3", "text": "y"}\n'
    )
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(stream)
    assert "line 2" in str(err.value)


def test_load_duplicate_id_names_both_lines():
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(_jsonl(
            {"id": "a", "year": 2020, "text": "x"},
            {"id": "b", "year": 2020, "text": "y"},
            {"id": "a", "year": 2021, "text": "z"},
        ))
    msg = str(err.value)
    assert "line 3" in msg and "line 1" in msg


def test_load_missing_field():
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(_jsonl({"id": "a", "text": "x"}))
    assert "year" in str(err.value)


def test_load_bool_year_rejected():
    with pytest.raises(CorpusFormatError):
        load_corpus(_jsonl({"id": "a", "year": True, "text": "x"}))


@pytest.mark.parametrize("record, field", [
    ({"id": "", "year": 2023, "text": "x"}, "'id'"),
    ({"id": "a", "year": 2023, "text": 3}, "'text'"),
    ({"id": "a", "year": 2023, "text": "x", "categories": "cs"}, "'categories'"),
])
def test_load_mistyped_field_names_it(record, field):
    with pytest.raises(CorpusFormatError, match=field):
        load_corpus(_jsonl(record))


def test_unknown_error_policy_rejected():
    with pytest.raises(ValueError, match="error policy"):
        list(iter_corpus(io.StringIO(""), on_error="ignore"))


def test_load_invalid_json_line():
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(io.StringIO("not json\n"))
    assert "line 1" in str(err.value)


def test_deeply_nested_json_line_is_a_malformed_record():
    deep = "[" * 200_000 + "\n"
    with pytest.raises(CorpusFormatError, match=r"line 1: invalid JSON \(nested too deeply\)"):
        load_corpus(io.StringIO(deep))
    errors: list[CorpusFormatError] = []
    docs = load_corpus(io.StringIO(deep + '{"id": "a", "year": 2020, "text": "x"}\n'),
                       on_error="skip", errors=errors)
    assert [d.id for d in docs] == ["a"]
    assert [str(e) for e in errors] == ["line 1: invalid JSON (nested too deeply)"]


def test_load_year_out_of_range():
    with pytest.raises(CorpusFormatError):
        load_corpus(_jsonl({"id": "a", "year": 1800, "text": "x"}))


def test_skip_policy_counts_errors():
    errors: list[CorpusFormatError] = []
    docs = list(iter_corpus(
        _jsonl(
            {"id": "a", "year": 2020, "text": "x"},
            {"id": "a", "year": 2021, "text": "dup"},
            {"id": "b", "year": 2021, "text": "y"},
        ),
        on_error="skip",
        errors=errors,
    ))
    assert [d.id for d in docs] == ["a", "b"]
    assert len(errors) == 1 and "duplicate" in str(errors[0])


def test_blank_lines_skipped():
    stream = io.StringIO(
        '{"id": "a", "year": 2020, "text": "x"}\n'
        "\n"
        '{"id": "b", "year": 2020, "text": "y"}\n'
    )
    assert len(load_corpus(stream)) == 2


def test_lines_given_as_bytes_are_read_like_text():
    stream = io.BytesIO(
        b'{"id": "a", "year": 2020, "text": "caf\xc3\xa9"}\n'
        b"\n"
        b'{"id": "a", "year": 2020, "text": "dup"}\n'
        b'{"id": "b", "year": 2021, "text": "y", "categories": ["cs"]}\n'
        b'{"id": "c", "year": 2021, "text": "caf\xe9"}\n'
    )
    errors: list[CorpusFormatError] = []
    docs = load_corpus(stream, on_error="skip", errors=errors)
    assert docs == [Document("a", 2020, "café"), Document("b", 2021, "y", ("cs",))]
    assert [str(e) for e in errors] == ["line 3: duplicate id 'a' (first seen on line 1)",
                                        "line 5: not valid UTF-8 (byte 0xe9)"]
    # A line that is not UTF-8 is refused by number, as in a file read from a path.
    with pytest.raises(CorpusFormatError, match=r"^line 2: not valid UTF-8 \(byte 0xff\)$"):
        load_corpus([b'{"id": "a", "year": 2023, "text": "x"}\n', b"\xff\n"])


def test_a_line_error_keeps_its_line_through_a_pickle():
    for err in (CorpusFormatError("bad", 3), CountsFormatError("bad", 3)):
        twin = pickle.loads(pickle.dumps(err))
        assert (type(twin), str(twin), twin.line) == (type(err), "line 3: bad", 3)


def test_load_from_path(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "year": 2020, "text": "hello"}\n', encoding="utf-8")
    docs = load_corpus(path)
    assert docs[0].text == "hello"


def test_undecodable_line_is_a_format_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(
        b'{"id": "a", "year": 2020, "text": "caf\xc3\xa9"}\n'
        b'{"id": "b", "year": 2020, "text": "caf\xe9"}\n'
        b'{"id": "c", "year": 2020, "text": "y"}\n'
    )
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert err.value.line == 2
    assert "line 2: not valid UTF-8 (byte 0xe9)" in str(err.value)
    errors: list[CorpusFormatError] = []
    docs = load_corpus(path, on_error="skip", errors=errors)
    assert [(d.id, d.text) for d in docs] == [("a", "café"), ("c", "y")]
    assert [e.line for e in errors] == [2]


def test_a_reader_that_stops_has_closed_its_file(tmp_path, monkeypatch):
    # Closed when the reader stops, not when the garbage collector comes by:
    # each reader is still referenced when its file is checked.
    corpus, counts = tmp_path / "c.jsonl", tmp_path / "c.csv"
    corpus.write_text('{"id": "a", "year": 2020, "text": "x"}\nnot json\n', encoding="utf-8")
    counts.write_text("series,year,matches,total\ns,x,1,2\n", encoding="utf-8")
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        stream = real_open(file, *args, **kwargs)
        if file in (corpus, counts):
            opened.append(stream)
        return stream

    monkeypatch.setattr("builtins.open", recording_open)
    docs = iter_corpus(corpus)
    assert next(docs).id == "a" and not opened[-1].closed
    with pytest.raises(CorpusFormatError, match="^line 2: invalid JSON"):
        next(docs)
    assert opened[-1].closed
    early = iter_corpus(corpus)
    next(early)
    early.close()
    assert opened[-1].closed
    with pytest.raises(CountsFormatError, match="^line 2: year, matches and total must be"):
        import_counts(counts)
    assert len(opened) == 3 and opened[-1].closed


# ---------------------------------------------------------------- the rules


# Written in a record as a quoted placeholder, then replaced by a number
# past int()'s default limit of 4,300 digits.
_HUGE = "9" * 5000
_HUGE_MARK = "<huge>"


# Changes that can each make a well-formed record line malformed, or leave
# it well-formed but not in the usual shape: values of a field (None drops
# it, "null" makes it JSON null), or text "before" or "after" the line.
_CHANGES = {
    "id": [None, "", 7, "null"],
    "year": [None, 1999, 2101, True, 2020.0, "2020", 10**30, _HUGE_MARK],
    "text": [None, 3],
    "categories": [["\ud800"], ["cs", "\udfff"], "cs", [1], ["cs", 7], {}],
    "pages": [_HUGE_MARK],
    "before": [" ", "\ufeff"],
    "after": [" ", " x"],
}


@st.composite
def _record_line(draw) -> str:
    """A well-formed record line, changed once in half the draws."""
    record = {"id": draw(st.sampled_from("abcdefgh")), "year": draw(st.sampled_from([2000, 2023, 2100])),
              # "caf\udcff" written unescaped is a byte that is not UTF-8 in a file.
              "text": draw(st.sampled_from(["x", "an intricate plan", "café", "caf\udcff"]))}
    cats = draw(st.sampled_from([None, [], ["cs"], ["cs", "ai"], ["économie"], ["\u3000"]]))
    if cats is not None:
        record["categories"] = cats
    record.update(draw(st.sampled_from([{}, {"extra": 1}, {"extra": {"nested": [1, "x"]}}])))
    around = {"before": "", "after": ""}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(_CHANGES)))
        value = draw(st.sampled_from(_CHANGES[key]))
        if key in around:
            around[key] = value
        elif value is None:
            record.pop(key)
        else:
            record[key] = None if value == "null" else value
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    try:
        line.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # a surrogate no file can hold unescaped
        line = json.dumps(record)
    return around["before"] + line.replace(f'"{_HUGE_MARK}"', _HUGE) + around["after"]


_LINE = st.one_of(
    _record_line(), _record_line(), _record_line(), _record_line(),
    st.sampled_from([json.dumps(v) for v in ([1, 2], "text", 3, None)]),
    st.sampled_from(["{", "garbage", '{"id": "a",}', "[" * 5000]),
    st.sampled_from(["", " ", "\t", "\u3000", " \u3000 "]),  # blank
)


@st.composite
def _corpus_lines(draw) -> list[str]:
    """Lines as an iterable holds them: "\n", "\r\n" or no line end."""
    return [draw(_LINE) + draw(st.sampled_from(["\n", "\n", "\r\n", ""]))
            for _ in range(draw(st.integers(0, 12)))]


def _rule_problem(record, seen: dict) -> str | None:
    """Why a decoded record is malformed, by the README's rules."""
    if not isinstance(record, dict):
        return "record is not a JSON object"
    for key in ("id", "year", "text"):
        if key not in record:
            return f"missing field {key!r}"
    doc_id, year = record["id"], record["year"]
    if not isinstance(doc_id, str) or doc_id == "":
        return "field 'id' must be a non-empty string"
    if doc_id in seen:
        return f"duplicate id {doc_id!r} (first seen on line {seen[doc_id]})"
    if type(year) is not int:
        return f"field 'year' must be an integer, got {year!r}"
    if not 2000 <= year <= 2100:
        return f"year {year} outside allowed range 2000-2100"
    if not isinstance(record["text"], str):
        return "field 'text' must be a string"
    cats = record.get("categories", [])
    if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
        return "field 'categories' must be a list of strings"
    lone = [c for c in "".join(cats) if 0xD800 <= ord(c) <= 0xDFFF]
    if lone:
        return f"field 'categories' holds a lone surrogate U+{ord(lone[0]):04X}"
    return None


def _expected(lines: list[str], from_file: bool):
    """The (line, document) pairs and the (line, message) errors of
    *lines*, in order."""
    docs, errors, seen = [], [], {}
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        escaped = [c for c in line if 0xDC80 <= ord(c) <= 0xDCFF]
        if from_file and escaped:
            problem = f"not valid UTF-8 (byte 0x{ord(escaped[0]) - 0xDC00:02x})"
        else:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problem = f"invalid JSON ({exc.msg})"
            except ValueError:
                problem = f"invalid JSON (integer of more than {sys.get_int_max_str_digits()} digits)"
            except RecursionError:
                problem = "invalid JSON (nested too deeply)"
            else:
                problem = _rule_problem(record, seen)
        if problem is not None:
            errors.append((n, f"line {n}: {problem}"))
            continue
        seen[record["id"]] = n
        docs.append((n, (record["id"], record["year"], record["text"],
                         tuple(record.get("categories", [])))))
    return docs, errors


def _read(source, on_error: str):
    docs, errors = [], []
    try:
        for doc in iter_corpus(source, on_error=on_error, errors=errors):
            docs.append(tuple(doc))
    except CorpusFormatError as exc:
        errors.append(exc)
    return docs, [(e.line, str(e)) for e in errors]


@settings(max_examples=300, deadline=None)
@given(_corpus_lines())
def test_reader_accepts_exactly_what_the_rules_accept(lines):
    # The file gets a line end where a line has none, so it holds the same
    # lines; reading it turns each "\r\n" into "\n".
    ended = [line if line.endswith("\n") else line + "\n" for line in lines]
    in_file = [line.replace("\r\n", "\n") for line in ended]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes("".join(ended).encode("utf-8", "surrogateescape"))
        for source, seen_lines, from_file in ((lines, lines, False), (path, in_file, True)):
            docs, errors = _expected(seen_lines, from_file)
            assert _read(source, "skip") == ([d for _, d in docs], errors)
            # abort stops at the first error, after the documents before it
            stop = errors[0][0] if errors else len(seen_lines) + 1
            assert _read(source, "abort") == ([d for n, d in docs if n < stop], errors[:1])
