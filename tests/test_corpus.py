from __future__ import annotations

import io
import json
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexdrift import (
    CorpusFormatError,
    Document,
    Term,
    builtin_lexicon,
    eval_count_scan,
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
