from __future__ import annotations

import pytest

from lexdrift import (
    And,
    AnyOf,
    AtLeastK,
    DataError,
    Lexicon,
    Or,
    Phrase,
    QuerySyntaxError,
    Document,
    Term,
    TermEntry,
    UnindexedTermError,
    UnknownNameError,
    build_index,
    eval_count,
    eval_count_scan,
    parse_query,
    series_from_index,
)
from lexdrift.query import MAX_NESTING, query_vocabulary


def test_or_of_terms(lexicon):
    q = parse_query(
        "intricate OR meticulous OR meticulously OR commendable", lexicon
    )
    assert q == Or((
        Term("intricate"), Term("meticulous"),
        Term("meticulously"), Term("commendable"),
    ))


def test_atleast_over_group(lexicon):
    q = parse_query("atleast(2, strong)", lexicon)
    assert isinstance(q, AtLeastK)
    assert q.k == 2
    assert set(q.members) == {
        "intricate", "meticulous", "meticulously", "commendable"
    }


def test_any_and_any(lexicon):
    q = parse_query("any(strong) AND any(disclosure)", lexicon)
    assert isinstance(q, And)
    first, second = q.parts
    assert isinstance(first, AnyOf) and isinstance(second, AnyOf)
    assert "large language model" in second.members


def test_and_binds_tighter_than_or(lexicon):
    q = parse_query("blue and red or yellow", lexicon)
    assert isinstance(q, Or)
    assert isinstance(q.parts[0], And)
    assert q.parts[1] == Term("yellow")


def test_parentheses_override(lexicon):
    q = parse_query("blue and (red or yellow)", lexicon)
    assert isinstance(q, And)
    assert isinstance(q.parts[1], Or)


def test_keywords_case_insensitive(lexicon):
    assert parse_query("blue And red", lexicon) == parse_query(
        "blue AND red", lexicon
    )
    assert parse_query("ANY(strong)", lexicon) == parse_query(
        "any(strong)", lexicon
    )


def test_quoted_phrase(lexicon):
    q = parse_query('"large language model"', lexicon)
    assert q == Phrase(("large", "language", "model"))


def test_quoted_single_token_is_term(lexicon):
    assert parse_query('"intricate"', lexicon) == Term("intricate")


def test_bare_terms_casefolded(lexicon):
    assert parse_query("Intricate", lexicon) == Term("intricate")


def test_group_names_expand_in_lists(lexicon):
    q = parse_query("any(strong, weak)", lexicon)
    assert set(q.members) == {
        "intricate", "meticulous", "meticulously", "commendable",
        "innovative", "versatile",
    }


def test_mixed_group_and_term_in_list(lexicon):
    q = parse_query("any(weak, blue)", lexicon)
    assert q.members == ("innovative", "versatile", "blue")


def test_quoted_member_taken_literally(lexicon):
    q = parse_query('any("strong", blue)', lexicon)
    assert q.members == ("strong", "blue")


def test_duplicate_members_dropped(lexicon):
    q = parse_query("any(intricate, strong)", lexicon)
    assert q.members.count("intricate") == 1


def test_atleast_k_validation(lexicon):
    with pytest.raises(QuerySyntaxError, match="at least 1"):
        parse_query("atleast(0, strong)", lexicon)
    with pytest.raises(QuerySyntaxError, match="exceeds"):
        parse_query("atleast(5, strong)", lexicon)
    # k == n is fine
    q = parse_query("atleast(4, strong)", lexicon)
    assert q.k == 4


def test_unknown_name(lexicon):
    with pytest.raises(UnknownNameError, match="zzzq"):
        parse_query("any(zzzq)", lexicon)


def test_unknown_bare_word_is_a_term(lexicon):
    # bare words outside the lexicon parse fine; the index decides later
    # whether it can answer them
    assert parse_query("outwith", lexicon) == Term("outwith")


def test_syntax_error_reports_byte_offset(lexicon):
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("blue and and red", lexicon)
    assert "offset" in str(err.value)
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("any(blue", lexicon)
    assert "offset" in str(err.value)


def test_byte_offset_counts_bytes_not_chars(lexicon):
    # 'é' is two UTF-8 bytes; the reported offset is into the byte stream
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("café ]", lexicon)
    assert err.value.offset == len("café ".encode("utf-8"))


@pytest.mark.parametrize("text, word", [
    ("¾", "¾"),
    ("intricate and a¾b", "a¾b"),
    ("café or Ⅻ", "Ⅻ"),
])
def test_word_that_is_not_one_token_is_a_syntax_error(lexicon, text, word):
    # the lexer's word class admits numeric characters that tokenization
    # drops ('¾') or splits on ('a¾b')
    with pytest.raises(QuerySyntaxError, match="not a single word token") as err:
        parse_query(text, lexicon)
    assert err.value.offset == len(text[:text.index(word)].encode("utf-8"))


def test_nesting_limit_reports_first_parenthesis_over_it(lexicon):
    assert parse_query("(" * MAX_NESTING + "delve" + ")" * MAX_NESTING,
                       lexicon) == Term("delve")
    for depth in (MAX_NESTING + 1, 5000):
        head = '"café" and '
        text = head + "(" * depth + "delve" + ")" * depth
        with pytest.raises(QuerySyntaxError, match="nested deeper") as err:
            parse_query(text, lexicon)
        assert err.value.offset == len(head.encode("utf-8")) + MAX_NESTING


def test_deepest_query_evaluates(lexicon):
    # alternating and/or keeps every level as its own node
    text = "intricate"
    for level in range(MAX_NESTING):
        text = f"({'notable' if level % 2 else 'pivotal'} {'and' if level % 2 else 'or'} {text})"
    q = parse_query(text, lexicon)
    docs = [Document(id="a", year=2023, text="a notable and pivotal case"),
            Document(id="b", year=2023, text="a notable result")]
    index = build_index(docs, lexicon)
    assert eval_count(index, q, 2023) == eval_count_scan(docs, lexicon, q, 2023) == 1


def test_unterminated_quote(lexicon):
    with pytest.raises(QuerySyntaxError, match="unterminated"):
        parse_query('"large language', lexicon)


def test_empty_query(lexicon):
    with pytest.raises(QuerySyntaxError):
        parse_query("", lexicon)
    with pytest.raises(QuerySyntaxError):
        parse_query("   ", lexicon)


def test_trailing_tokens_rejected(lexicon):
    with pytest.raises(QuerySyntaxError):
        parse_query("blue red", lexicon)


def test_query_vocabulary(lexicon):
    q = parse_query('any(weak) and "large language model" or blue', lexicon)
    assert query_vocabulary(q) == {
        "innovative", "versatile", "large language model", "blue",
    }


def test_ast_k_invariant():
    with pytest.raises(ValueError):
        AtLeastK(0, ("a", "b"))
    with pytest.raises(ValueError):
        AtLeastK(3, ("a", "b"))


# ------------------------------------------------------ case-sensitive names


def _case_pair():
    lexicon = Lexicon("case", (TermEntry("GPT", "disclosure", case_sensitive=True),
                               TermEntry("gpt", "disclosure")))
    docs = [Document("a", 2023, "GPT is here"), Document("b", 2023, "gpt is here")]
    return lexicon, docs, build_index(docs, lexicon)


def test_case_sensitive_entry_is_reachable():
    lexicon, docs, index = _case_pair()
    assert index.df("GPT", 2023) == 1 and index.df("gpt", 2023) == 2
    for text, term, count in (('"GPT"', "GPT", 1), ("GPT", "GPT", 1), ("gpt", "gpt", 2),
                              ('"gpt"', "gpt", 2)):
        q = parse_query(text, lexicon)
        assert q == Term(term), text
        assert eval_count(index, q, 2023) == eval_count_scan(docs, lexicon, q, 2023) == count
    for text, member, count in (("any(GPT)", "GPT", 1), ("any(gpt)", "gpt", 2),
                                ('any("GPT")', "GPT", 1), ("atleast(1, GPT)", "GPT", 1)):
        q = parse_query(text, lexicon)
        assert q.members == (member,), text
        assert eval_count(index, q, 2023) == eval_count_scan(docs, lexicon, q, 2023) == count
    assert series_from_index(index, "GPT").points == {2023: (1, 2)}
    assert series_from_index(index, "gpt").points == {2023: (2, 2)}


def test_name_told_apart_only_by_case_is_ambiguous():
    lexicon, _, index = _case_pair()
    for text, offset in (("Gpt", 0), ('"Gpt"', 0), ("any(Gpt)", 4), ("atleast(1, gPT)", 11)):
        with pytest.raises(UnknownNameError, match=f"ambiguous.*offset {offset}"):
            parse_query(text, lexicon)
    with pytest.raises(DataError, match="ambiguous series 'Gpt'"):
        series_from_index(index, "Gpt")
    with pytest.raises(UnindexedTermError):
        index.df("Gpt", 2023)


def test_name_resolves_ignoring_case_when_unambiguous():
    lexicon = Lexicon("one", (TermEntry("GPT", "disclosure", case_sensitive=True),
                              TermEntry("Large Language Model", "disclosure")))
    assert parse_query("gpt", lexicon) == Term("GPT")
    assert parse_query("any(Gpt)", lexicon) == AnyOf(("GPT",))
    assert parse_query('"large language model"', lexicon) == \
        Phrase(("Large", "Language", "Model"))
    assert parse_query("zebra", lexicon) == Term("zebra")
