from __future__ import annotations

import json

import pytest

from lexdrift import (
    Lexicon,
    LexiconError,
    TermEntry,
    builtin_lexicon,
    load_lexicon,
    save_lexicon,
)


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


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xf6g=*")
    with pytest.raises(LexiconError, match="not UTF-8"):
        load_lexicon(path)
