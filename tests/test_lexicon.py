from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import (
    Document,
    IndexFileError,
    Lexicon,
    LexiconError,
    TermEntry,
    build_index,
    builtin_lexicon,
    load_index,
    load_lexicon,
    save_index,
    save_lexicon,
    tokenize,
)
from lexdrift.corpus import raw_tokens
from lexdrift.lexicon import ROLES, lexicon_from_dict, lexicon_to_dict

import index_file
from conftest import SAMPLE_INDEX


def test_builtin_strength_groups(lexicon):
    groups = lexicon.groups()
    assert set(groups["strong"]) == {
        "intricate", "meticulous", "meticulously", "commendable"
    }
    assert set(groups["medium"]) == {
        "notable", "pivotal", "invaluable", "noteworthy", "methodically",
        "strategically",
    }
    assert set(groups["weak"]) == {"innovative", "versatile"}


def test_builtin_role_sizes(lexicon):
    groups = lexicon.groups()
    assert len(groups["adjective"]) == 12
    assert len(groups["adverb"]) == 12
    assert len(groups["control"]) == 12
    assert len(groups["extra"]) == 2
    assert len(groups["disclosure"]) == 6


def test_builtin_disclosure_phrases(lexicon):
    disclosure = lexicon.groups()["disclosure"]
    assert "large language model" in disclosure
    assert "artificial intelligence" in disclosure
    assert "chatgpt" in disclosure


def test_builtin_extras(lexicon):
    assert set(lexicon.groups()["extra"]) == {"groundbreaking", "outwith"}


def test_vocabulary_is_entry_order(lexicon):
    assert len(lexicon.terms()) == 44
    assert len(set(lexicon.terms())) == 44


def test_duplicate_term_rejected():
    with pytest.raises(LexiconError, match="duplicate"):
        Lexicon("x", (TermEntry("blue", "control"), TermEntry("blue", "adjective")))


def test_duplicate_within_strength_group_rejected():
    entries = (TermEntry("notable", "adjective"),)
    with pytest.raises(LexiconError, match="notable"):
        Lexicon("x", entries, {"medium": ("notable", "notable")})


def test_strength_overlap_rejected():
    entries = (TermEntry("intricate", "adjective"),)
    with pytest.raises(LexiconError, match="intricate"):
        Lexicon("x", entries, {"strong": ("intricate",), "medium": ("intricate",)})


def test_strength_member_must_be_adjective_or_adverb():
    entries = (TermEntry("blue", "control"),)
    with pytest.raises(LexiconError, match="blue"):
        Lexicon("x", entries, {"strong": ("blue",)})


def test_strength_member_must_exist():
    with pytest.raises(LexiconError, match="ghost"):
        Lexicon("x", (TermEntry("blue", "control"),), {"strong": ("ghost",)})


def test_phrase_outside_disclosure_rejected():
    with pytest.raises(LexiconError, match="phrases"):
        Lexicon("x", (TermEntry("very nice", "adjective"),))


def test_term_must_survive_tokenization():
    with pytest.raises(LexiconError, match="tokenization"):
        Lexicon("x", (TermEntry("gpt-4!", "extra"),))
    with pytest.raises(LexiconError, match="tokenization"):
        Lexicon("x", (TermEntry("hello_world", "control"),))
    # case variants are tolerated: matching is case-insensitive anyway
    assert Lexicon("x", (TermEntry("Upper", "control"),)).terms() == ("Upper",)


def test_case_sensitive_terms_keep_case():
    lex = Lexicon("x", (TermEntry("GPT", "disclosure", case_sensitive=True),))
    assert [e.case_sensitive for e in lex.entries] == [True]


def test_groups_omit_empty():
    lex = Lexicon("x", (TermEntry("blue", "control"),))
    assert set(lex.groups()) == {"control"}


def test_round_trip(tmp_path, lexicon):
    path = tmp_path / "lex.json"
    save_lexicon(lexicon, path)
    assert load_lexicon(path) == lexicon


def test_round_trip_custom(tmp_path):
    lex = Lexicon(
        "custom",
        (
            TermEntry("sparkling", "adjective"),
            TermEntry("dull", "adjective"),
            TermEntry("blue", "control"),
            TermEntry("neural net", "disclosure"),
            TermEntry("GPT", "disclosure", case_sensitive=True),
        ),
        {"strong": ("sparkling",), "weak": ("dull",)},
    )
    path = tmp_path / "lex.json"
    save_lexicon(lex, path)
    assert load_lexicon(path) == lex


@pytest.mark.parametrize("name, entry, strength, message", [
    ("", TermEntry("blue", "control"), {}, "name must be non-empty"),
    ("x", TermEntry("blue", "colour"), {}, "unknown role"),
    ("x", TermEntry("", "control"), {}, "empty term"),
    ("x", TermEntry("blue", "control"), {"huge": ()}, "unknown strength group"),
])
def test_invalid_lexicon_rejected(name, entry, strength, message):
    with pytest.raises(LexiconError, match=message):
        Lexicon(name, (entry,), strength)


@pytest.mark.parametrize("data, message", [
    ({"name": "x", "entries": [{"term": "blue", "role": "control", "case_sensitive": 1}]},
     "case_sensitive must be a bool"),
    ({"name": "x", "entries": [], "groups": []}, "'groups' must be an object"),
    ({"name": "x", "entries": [], "groups": {"strong": "blue"}}, "must be a list of terms"),
])
def test_load_rejects_mistyped_fields(tmp_path, data, message):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(LexiconError, match=message):
        load_lexicon(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "entries": [{"term": 3}]}', encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(path)
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(LexiconError, match="line"):
        load_lexicon(path)
    path.write_text("[" * 200_000, encoding="utf-8")
    with pytest.raises(LexiconError, match="nested too deeply"):
        load_lexicon(path)
    # json.loads refuses an integer past Python's limit with a plain ValueError.
    path.write_text('{"name": "x", "entries": [], "size": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"^invalid lexicon JSON: integer of more than 4300 digits$"):
        load_lexicon(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xf6g=*")
    with pytest.raises(LexiconError, match="not UTF-8"):
        load_lexicon(path)


def _entry(term, role, **more) -> dict:
    return {"term": term, "role": role, **more}


_BLUE = _entry("blue", "control")


# Each lexicon error once per rule, and two faults at once where the order of
# the rules decides which is reported: every shape error of lexicon_from_dict
# (entries, then groups) before any error of the entries' values, those by
# entry order, and the strength groups last. An index header sorts its keys,
# so groups are listed here in that order.
_LEXICON_ERRORS = [
    pytest.param(["x"], "lexicon file must contain a JSON object", id="not-an-object"),
    pytest.param({"name": 3, "entries": []}, "lexicon 'name' must be a string", id="name-not-str"),
    pytest.param({"name": "x", "entries": {}}, "lexicon 'entries' must be a list",
                 id="entries-not-list"),
    pytest.param({"name": "x", "entries": [{"term": 3}]}, "malformed entry: {'term': 3}",
                 id="entry-malformed"),
    pytest.param({"name": "x", "entries": [_entry("blue", "control", case_sensitive=1)]},
                 "entry 'blue': case_sensitive must be a bool", id="case-sensitive-not-bool"),
    pytest.param({"name": "x", "entries": [], "groups": []}, "lexicon 'groups' must be an object",
                 id="groups-not-object"),
    pytest.param({"name": "x", "entries": [], "groups": {"strong": "blue"}},
                 "group 'strong' must be a list of terms", id="group-not-list"),
    pytest.param({"name": "", "entries": [_BLUE]}, "lexicon name must be non-empty",
                 id="name-empty"),
    pytest.param({"name": "x", "entries": [_entry("blue", "colour")]},
                 "unknown role 'colour' for term 'blue'", id="role-unknown"),
    pytest.param({"name": "x", "entries": [_entry("", "control")]}, "empty term",
                 id="term-empty"),
    pytest.param({"name": "x", "entries": [_BLUE, _entry("blue", "adjective")]},
                 "duplicate term 'blue'", id="term-duplicate"),
    pytest.param({"name": "x", "entries": [_entry("gpt-4!", "extra")]},
                 "term 'gpt-4!' does not survive tokenization; terms must be plain tokens "
                 "(or token phrases)", id="term-not-tokens"),
    pytest.param({"name": "x", "entries": [_entry("GPT4", "extra", case_sensitive=True)]},
                 "term 'GPT4' does not survive tokenization; terms must be plain tokens "
                 "(or token phrases)", id="case-sensitive-term-not-tokens"),
    pytest.param({"name": "x", "entries": [_entry("very nice", "adjective")]},
                 "term 'very nice': phrases are only permitted for the disclosure role",
                 id="phrase-outside-disclosure"),
    pytest.param({"name": "x", "entries": [_BLUE], "groups": {"huge": []}},
                 "unknown strength group 'huge'", id="group-unknown"),
    pytest.param({"name": "x", "entries": [_entry("notable", "adjective")],
                  "groups": {"medium": ["notable", "notable"]}},
                 "duplicate term 'notable' in group 'medium'", id="group-member-repeated"),
    pytest.param({"name": "x", "entries": [_entry("intricate", "adjective")],
                  "groups": {"medium": ["intricate"], "strong": ["intricate"]}},
                 "term 'intricate' appears in both 'medium' and 'strong'", id="groups-overlap"),
    pytest.param({"name": "x", "entries": [_BLUE], "groups": {"strong": ["blue"]}},
                 "strength group member 'blue' is not an adjective or adverb entry",
                 id="group-member-control"),
    pytest.param({"name": "x", "entries": [_BLUE], "groups": {"strong": ["ghost"]}},
                 "strength group member 'ghost' is not an adjective or adverb entry",
                 id="group-member-missing"),
    pytest.param({"name": "x", "entries": [_entry("blue", "colour"), {"term": 3}]},
                 "malformed entry: {'term': 3}", id="role-unknown-then-entry-malformed"),
    pytest.param({"name": "x", "entries": [_entry("gpt-4!", "extra")],
                  "groups": {"strong": "gpt"}},
                 "group 'strong' must be a list of terms", id="term-not-tokens-then-group-not-list"),
    pytest.param({"name": "x", "entries": [_BLUE, _entry("blue", "adjective")],
                  "groups": {"huge": []}},
                 "duplicate term 'blue'", id="term-duplicate-then-group-unknown"),
    pytest.param({"name": "", "entries": [_entry("blue", "colour")]},
                 "lexicon name must be non-empty", id="name-empty-then-role-unknown"),
    pytest.param({"name": "", "entries": [_entry("blue", "control", case_sensitive="yes")]},
                 "entry 'blue': case_sensitive must be a bool",
                 id="name-empty-then-case-sensitive-not-bool"),
    pytest.param({"name": "x", "entries": [_entry("blue", "colour"), _entry("", "control")]},
                 "unknown role 'colour' for term 'blue'", id="role-unknown-then-term-empty"),
    pytest.param({"name": "x", "entries": [_entry("", "colour")]},
                 "unknown role 'colour' for term ''", id="term-empty-with-role-unknown"),
    pytest.param({"name": "x", "entries": [_entry("gpt-4!", "extra"), _BLUE, _BLUE],
                  "groups": {"strong": ["ghost"]}},
                 "term 'gpt-4!' does not survive tokenization; terms must be plain tokens "
                 "(or token phrases)", id="term-not-tokens-then-term-duplicate"),
]


def _index_with_lexicon(path, data) -> None:
    """Write to *path* the committed sample index with *data* in place of
    the lexicon in its header, checksum and lengths mended."""
    header, columns, ids = index_file.parts(SAMPLE_INDEX.read_bytes())
    header["lexicon"] = data
    path.write_bytes(index_file.framed(index_file.packed(header, columns, ids)))


@pytest.mark.parametrize("data, message", _LEXICON_ERRORS)
def test_a_lexicon_error_reads_alike_through_every_way_in(tmp_path, data, message):
    with pytest.raises(LexiconError) as caught:
        lexicon_from_dict(data)
    assert str(caught.value) == message
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(LexiconError) as caught:
        load_lexicon(path)
    assert str(caught.value) == message
    path = tmp_path / "lex.idx"
    _index_with_lexicon(path, data)
    with pytest.raises(IndexFileError) as caught:
        load_index(path)
    assert str(caught.value) == f"{path}: malformed payload ({message})"


def test_the_sample_index_with_its_own_lexicon_written_back_loads(tmp_path, lexicon):
    path = tmp_path / "same.idx"
    _index_with_lexicon(path, lexicon_to_dict(lexicon))
    # The same index: index_file.packed deflates otherwise than save_index does.
    assert index_file.streams(path.read_bytes()) == index_file.streams(SAMPLE_INDEX.read_bytes())
    assert load_index(path).lexicon == lexicon


_LETTERS = "abcXYZ"
_WORD = st.text(_LETTERS, min_size=1, max_size=6)
# Terms of every kind the tokenizer rule decides on: plain ASCII words in
# mixed case, words joined or edged by a hyphen or an apostrophe, words with
# digits, non-ASCII letters and numerals, phrases, and anything of these
# characters.
_TERMS = st.one_of(
    _WORD,
    st.tuples(_WORD, st.sampled_from("-'’"), _WORD).map("".join),
    st.tuples(st.sampled_from(["", "-", "'", "’"]), _WORD,
              st.sampled_from(["", "-", "'", "’", "--"])).map("".join),
    st.tuples(_WORD, st.text("0123456789", min_size=1, max_size=2)).map("".join),
    st.text(_LETTERS + "éßﬁİıΣςø²Ⅻ", min_size=1, max_size=6),
    st.lists(_WORD, min_size=2, max_size=3).map(" ".join),
    st.text(_LETTERS + "é-'’ 1_²­\t", min_size=1, max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(term=_TERMS, role=st.sampled_from(ROLES), case_sensitive=st.booleans())
def test_an_entry_is_accepted_exactly_when_the_tokenizer_keeps_it(term, role, case_sensitive):
    # The rule spelled out with the tokenizer an entry is matched with.
    toks = raw_tokens(term) if case_sensitive else tokenize(term)
    canon = (term if case_sensitive else term.casefold()).replace("’", "'")
    if not toks or " ".join(toks) != canon:
        problem = (f"term {term!r} does not survive tokenization; "
                   "terms must be plain tokens (or token phrases)")
    elif len(toks) > 1 and role != "disclosure":
        problem = f"term {term!r}: phrases are only permitted for the disclosure role"
    else:
        problem = None
    entry = TermEntry(term, role, case_sensitive)
    if problem is None:
        assert Lexicon("x", (entry,)).entries == (entry,)
    else:
        with pytest.raises(LexiconError) as caught:
            Lexicon("x", (entry,))
        assert str(caught.value) == problem


# Case-sensitive entries, and entries that differ only in case, among them
# two that case alone tells apart and a phrase in two spellings.
_CASED = Lexicon("cased", (
    TermEntry("GPT", "disclosure", case_sensitive=True),
    TermEntry("gpt", "disclosure"),
    TermEntry("Nature", "control", case_sensitive=True),
    TermEntry("nature", "control", case_sensitive=True),
    TermEntry("Meticulous", "adjective"),
    TermEntry("meticulously", "adverb"),
    TermEntry("naïve", "extra"),
    TermEntry("Straße", "control"),
    TermEntry("don’t", "extra"),
    TermEntry("well-known", "adjective"),
    TermEntry("large language model", "disclosure"),
    TermEntry("Large Language Model", "disclosure", case_sensitive=True),
), {"strong": ("Meticulous",), "weak": ("meticulously", "well-known")})


def _derived(lex: Lexicon) -> tuple:
    names = [spelling for term in lex.terms()
             for spelling in (term, term.upper(), term.lower(), term.replace("’", "'"))]
    return ([(name, lex.resolve(name)) for name in names + ["ghost"]],
            list(lex.groups().items()), lex.terms())


@pytest.mark.parametrize("fresh", [builtin_lexicon(), _CASED], ids=["builtin", "cased"])
def test_a_loaded_lexicon_derives_what_a_fresh_one_does(tmp_path, fresh):
    # Equality compares the fields only, not the tables derived from them.
    if fresh.name == "builtin":
        loaded = load_index(SAMPLE_INDEX).lexicon
    else:
        path = tmp_path / "cased.idx"
        save_index(build_index([Document("d1", 2023, "GPT and nature")], fresh), path)
        loaded = load_index(path).lexicon
    path = tmp_path / "lex.json"
    save_lexicon(fresh, path)
    for lex in (loaded, load_lexicon(path), lexicon_from_dict(lexicon_to_dict(fresh))):
        assert lex == fresh
        assert _derived(lex) == _derived(fresh)


def test_a_name_resolves_to_the_entries_it_names():
    assert [_CASED.resolve(name) for name in (
        "GPT", "gpt", "Gpt", "NATURE", "nature", "STRASSE", "don't", "DON’T", "NAÏVE",
        "large language model", "LARGE LANGUAGE MODEL", "ghost")] == [
        ("GPT",), ("gpt",), ("GPT", "gpt"), ("Nature", "nature"), ("nature",), ("Straße",),
        ("don’t",), ("don’t",), ("naïve",), ("large language model",),
        ("large language model", "Large Language Model"), ()]
    assert _CASED.groups() == {
        "adjective": ("Meticulous", "well-known"), "adverb": ("meticulously",),
        "control": ("Nature", "nature", "Straße"), "extra": ("naïve", "don’t"),
        "disclosure": ("GPT", "gpt", "large language model", "Large Language Model"),
        "strong": ("Meticulous",), "weak": ("meticulously", "well-known")}
    assert list(_CASED.groups()) == ["adjective", "adverb", "control", "extra", "disclosure",
                                     "strong", "weak"]
