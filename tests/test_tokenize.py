from __future__ import annotations

import string

from hypothesis import example, given
from hypothesis import strategies as st

from lexdrift import tokenize
from lexdrift.corpus import _letter_runs, raw_tokens

from conftest import oracle_tokens


def test_basic_sentence():
    assert tokenize("Meticulously, the RED fox.") == [
        "meticulously", "the", "red", "fox"
    ]


def test_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []
    assert tokenize("123 456 !!!") == []


def test_digits_terminate_tokens():
    assert tokenize("state-of-the-art GPT-4") == ["state-of-the-art", "gpt"]
    assert tokenize("2fast4you") == ["fast", "you"]


def test_internal_punctuation_preserved():
    assert tokenize("it's a state-of-the-art don't-panic design") == [
        "it's", "a", "state-of-the-art", "don't-panic", "design"
    ]


def test_edge_punctuation_stripped():
    assert tokenize("-leading trailing- 'quoted'") == [
        "leading", "trailing", "quoted"
    ]


def test_curly_apostrophe_normalized():
    assert tokenize("it’s") == ["it's"]


def test_unicode_letters():
    assert tokenize("Naïve café EST-CE") == ["naïve", "café", "est-ce"]


def test_casefold_not_just_lower():
    # ß casefolds to ss, which plain lower() would not do
    assert tokenize("STRASSE Straße") == ["strasse", "strasse"]


def test_raw_tokens_keep_case():
    assert raw_tokens("The GPT Model") == ["The", "GPT", "Model"]


_WORDS = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    min_size=0, max_size=20,
)


@given(_WORDS)
def test_idempotent_on_own_output(words):
    text = " ".join(words)
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text(max_size=200))
def test_never_raises_and_tokens_are_folded(text):
    tokens = tokenize(text)
    for tok in tokens:
        assert tok == tok.casefold()
        assert not any(ch.isdigit() for ch in tok)


@given(_WORDS)
def test_case_invariance(words):
    text = " ".join(words)
    assert tokenize(text.upper()) == tokenize(text)


# ASCII text weighted towards what the fast path must get right: joiners
# next to non-letters, doubled joiners, digits and underscores inside words,
# and every kind of ASCII whitespace.
_ASCII_PIECES = st.one_of(
    st.sampled_from([
        "'", "-", "--", "'-", "-'", "''", " - ", "_", "4", "gpt-4", "a--b",
        "a'-b", "don't", "-x", "x-", "'x'", "\t", "\n", "\r", " ",
    ]),
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=4),
    st.characters(max_codepoint=127),
)
_ASCII_TEXT = st.lists(_ASCII_PIECES, max_size=30).map("".join)


@given(_ASCII_TEXT)
@example("a--b a'-b -x- x' 'x gpt-4 _a_ a-4b - ' it's state-of-the-art")
def test_ascii_fast_path_equals_unicode_path(text):
    assert text.isascii()
    assert tokenize(text) == _letter_runs(text.casefold())
    assert raw_tokens(text) == _letter_runs(text)


# Text weighted towards the cases a tokenizer gets wrong: joiners of each
# kind, doubled or at a word's edge, digits (ASCII and not) and numeric
# characters inside words, non-ASCII letters, and letters whose case folding
# changes their length or adds a combining mark.
_MIXED_PIECES = st.one_of(
    st.sampled_from([
        "'", "’", "-", "--", "'-", "’’", "-’", "4", "٣", "²", "¾", "Ⅻ", "_",
        "é", "ß", "İ", "ﬁ", "Σ", "ς", "ǅ", "ª", "漢", "ا", " ", "\n",
        "gpt-4", "don’t", "a’-b",
    ]),
    st.text(alphabet="abcXYZéÉñÑøΩωжЖ", min_size=1, max_size=4),
    st.characters(),
)
_MIXED_TEXT = st.lists(_MIXED_PIECES, max_size=30).map("".join)


@given(_MIXED_TEXT)
@example("İstanbul ǅemal ﬁne STRAẞE a’-b don’t x-¾y 2fast4you ٣a")
def test_tokenize_equals_the_test_oracle(text):
    assert tokenize(text) == oracle_tokens(text)
