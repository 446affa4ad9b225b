from __future__ import annotations

import io
import json
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexdrift import CorpusFormatError, Document, load_corpus, term_presence
from lexdrift.corpus import iter_corpus, token_evidence


def _jsonl(*records) -> io.StringIO:
    return io.StringIO("".join(json.dumps(r) + "\n" for r in records))


def _doc(text: str) -> Document:
    return Document(id="d1", year=2020, text=text)


# ---------------------------------------------------------------- presence


def test_presence_direct():
    _, found = term_presence(
        _doc("The intricate results are notable"),
        {"intricate", "meticulous", "notable"},
    )
    assert found == {"intricate", "notable"}


def test_presence_whole_word_only():
    _, found = term_presence(_doc("intricately woven"), {"intricate"})
    assert found == set()


def test_presence_phrase():
    _, found = term_presence(
        _doc("a large language model was used"), {"large language model"}
    )
    assert found == {"large language model"}


def test_presence_phrase_not_scattered():
    _, found = term_presence(
        _doc("large scale language of the model"), {"large language model"}
    )
    assert found == set()


def test_presence_case_insensitive():
    _, found = term_presence(_doc("INTRICATE work"), {"intricate"})
    assert found == {"intricate"}


def test_presence_empty_vocabulary_rejected():
    with pytest.raises(ValueError):
        term_presence(_doc("anything"), set())


def test_token_evidence_has_sequence():
    ev = token_evidence(_doc("a b a"))
    assert ev.sequence == ("a", "b", "a")
    assert ev.tokens == frozenset({"a", "b"})


_WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@given(st.lists(_WORD, min_size=1, max_size=15), st.sets(_WORD, min_size=1, max_size=5),
       st.sets(_WORD, min_size=1, max_size=5))
def test_presence_distributes_over_vocab_union(words, v1, v2):
    doc = _doc(" ".join(words))
    _, both = term_presence(doc, v1 | v2)
    _, first = term_presence(doc, v1)
    _, second = term_presence(doc, v2)
    assert both == first | second


@given(st.lists(_WORD, min_size=1, max_size=15), _WORD, _WORD)
def test_presence_never_matches_substrings(words, term, affix):
    # glue the term onto an affix: the combined token must not match
    text = " ".join(words) + f" {affix}{term}{affix}x"
    _, found = term_presence(_doc(text), {term})
    assert found == ({term} if term in words else set())


@given(st.lists(_WORD, min_size=1, max_size=15), st.sets(_WORD, min_size=1, max_size=5))
def test_presence_case_invariant(words, vocab):
    doc_lower = _doc(" ".join(words))
    doc_upper = _doc(" ".join(words).upper())
    assert term_presence(doc_lower, vocab)[1] == term_presence(doc_upper, vocab)[1]


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
