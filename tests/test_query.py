from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import (
    And,
    AnyOf,
    AtLeastK,
    DataError,
    Lexicon,
    Or,
    Phrase,
    QueryError,
    QuerySyntaxError,
    Document,
    Term,
    TermEntry,
    UnindexedTermError,
    UnknownNameError,
    build_index,
    builtin_lexicon,
    eval_count,
    eval_count_scan,
    parse_query,
    series_from_index,
)
from lexdrift.query import MAX_NESTING, query_vocabulary

from conftest import make_random_corpus, make_random_query


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
    # int() refuses a count past Python's limit with a plain ValueError.
    with pytest.raises(QuerySyntaxError,
                       match=r"^atleast count is an integer of more than 4300 digits \(byte offset 8\)$"):
        parse_query(f"atleast({'9' * 5000}, strong)", lexicon)
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


def test_empty_phrase_and_empty_name_list_rejected(lexicon):
    with pytest.raises(QuerySyntaxError, match="no tokens"):
        parse_query('"123"', lexicon)
    with pytest.raises(QuerySyntaxError, match="expected a group or term name"):
        parse_query("any(,)", lexicon)


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


@pytest.mark.parametrize("make", [lambda: Phrase(()), lambda: AnyOf(()),
                                  lambda: And(()), lambda: Or(())])
def test_empty_ast_node_rejected(make):
    with pytest.raises(ValueError, match="at least one"):
        make()


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
    with pytest.raises(DataError, match="'Gpt' is ambiguous"):
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


def test_a_listed_name_of_a_group_and_an_entry_means_the_group():
    lexicon = Lexicon("both", (TermEntry("weak", "adjective"), TermEntry("innovative", "adjective"),
                               TermEntry("Strong", "adjective", case_sensitive=True),
                               TermEntry("notable", "adjective")),
                      {"weak": ["innovative"], "strong": ["notable"]})
    assert parse_query("any(weak)", lexicon) == parse_query("any(WEAK)", lexicon) \
        == AnyOf(("innovative",))
    assert parse_query("atleast(2, Strong, weak)", lexicon) == \
        AtLeastK(2, ("notable", "innovative"))
    # Outside a list, a name is a term.
    assert parse_query("weak", lexicon) == Term("weak")


# ------------------------------------------------------------ every error


def _case_lexicon():
    return Lexicon("case", (TermEntry("GPT", "disclosure", case_sensitive=True),
                            TermEntry("gpt", "disclosure")))


# Each error the parser raises: the query after the prefix, the lexicon
# ("case" for the pair above), the exception type, the message and the
# byte offset into the query after the prefix. The lexer takes a character
# that starts no token as a token of its own, which the parser refuses, and
# a refused query is then read for such a character: a lexer error wins
# over any parse error, before it or at it.
ERRORS = [
    ('"large language', "builtin", QuerySyntaxError, "unterminated quoted phrase", 0),
    ('foo AND AND "bar', "builtin", QuerySyntaxError, "unterminated quoted phrase", 12),
    ("blue ] red", "builtin", QuerySyntaxError, "unexpected character ']'", 5),
    ("and ]", "builtin", QuerySyntaxError, "unexpected character ']'", 4),
    ("bleu € bleu", "builtin", QuerySyntaxError, "unexpected character '€'", 5),
    ("blue red", "builtin", QuerySyntaxError, "unexpected input 'red'", 5),
    ('any(strong) "x"', "builtin", QuerySyntaxError, "unexpected input '\"x\"'", 12),
    ("(blue", "builtin", QuerySyntaxError, "expected ')'", 5),
    ("(blue red", "builtin", QuerySyntaxError, "expected ')'", 6),
    ("any(blue red)", "builtin", QuerySyntaxError, "expected ')'", 9),
    ("atleast(2, strong", "builtin", QuerySyntaxError, "expected ')'", 17),
    ("atleast(strong)", "builtin", QuerySyntaxError, "expected a count for atleast(k, ...)", 8),
    ("atleast(2 strong)", "builtin", QuerySyntaxError, "expected ','", 10),
    ("(" * 101 + "blue" + ")" * 101, "builtin", QuerySyntaxError,
     "parentheses nested deeper than 100", 100),
    ("blue and and red", "builtin", QuerySyntaxError, "unexpected keyword 'and'", 9),
    ("Or", "builtin", QuerySyntaxError, "unexpected keyword 'Or'", 0),
    ("intricate and a¾b", "builtin", QuerySyntaxError, "'a¾b' is not a single word token", 14),
    ("", "builtin", QuerySyntaxError, "expected a term, phrase, group operator or '('", 0),
    ("any(blue) and", "builtin", QuerySyntaxError,
     "expected a term, phrase, group operator or '('", 13),
    (")", "builtin", QuerySyntaxError, "expected a term, phrase, group operator or '('", 0),
    ("2", "builtin", QuerySyntaxError, "expected a term, phrase, group operator or '('", 0),
    ('"123"', "builtin", QuerySyntaxError, "quoted phrase contains no tokens", 0),
    ('atleast(2, strong, "")', "builtin", QuerySyntaxError, "quoted phrase contains no tokens",
     19),
    (f"atleast({'9' * 5000}, strong)", "builtin", QuerySyntaxError,
     "atleast count is an integer of more than 4300 digits", 8),
    ("atleast(0, strong)", "builtin", QuerySyntaxError, "atleast count must be at least 1", 8),
    ("atleast(5, strong)", "builtin", QuerySyntaxError,
     "atleast count 5 exceeds the 4 listed terms", 0),
    ("any(zzzq)", "builtin", UnknownNameError, "unknown group or term 'zzzq'", 4),
    ("any(,)", "builtin", QuerySyntaxError, "expected a group or term name", 4),
    ("any(strong, 2)", "builtin", QuerySyntaxError, "expected a group or term name", 12),
    ("Gpt", "case", UnknownNameError,
     "'Gpt' is ambiguous: lexicon entries 'GPT', 'gpt' differ only in case", 0),
    ('"Gpt"', "case", UnknownNameError,
     "'Gpt' is ambiguous: lexicon entries 'GPT', 'gpt' differ only in case", 0),
    ("atleast(1, gPT)", "case", UnknownNameError,
     "'gPT' is ambiguous: lexicon entries 'GPT', 'gpt' differ only in case", 11),
    ("'", "builtin", QuerySyntaxError, "unexpected character \"'\"", 0),
    ("-", "builtin", QuerySyntaxError, "unexpected character '-'", 0),
    ("_", "builtin", QuerySyntaxError, "unexpected character '_'", 0),
    ("*", "builtin", QuerySyntaxError, "unexpected character '*'", 0),
    ('"', "builtin", QuerySyntaxError, "unterminated quoted phrase", 0),
    ("blue AND -", "builtin", QuerySyntaxError, "unexpected character '-'", 9),
    ("any(strong, *)", "builtin", QuerySyntaxError, "unexpected character '*'", 12),
    ("atleast(*, strong)", "builtin", QuerySyntaxError, "unexpected character '*'", 8),
]


@pytest.mark.parametrize("prefix", ["", "cafe OR ", "café OR "])
@pytest.mark.parametrize("text, lexicon_name, error, message, offset", ERRORS,
                         ids=[str(i) for i in range(len(ERRORS))])
def test_each_error_message_and_offset(lexicon, prefix, text, lexicon_name, error, message,
                                       offset):
    lex = _case_lexicon() if lexicon_name == "case" else lexicon
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(prefix + text, lex)
    at = len(prefix.encode("utf-8")) + offset
    assert type(err.value) is error
    assert str(err.value) == f"{message} (byte offset {at})"
    assert err.value.offset == at


@pytest.mark.parametrize("text, message", [
    ("blue \udcff", "query text is not valid UTF-8 (byte 0xff)"),
    ('"large language \ud800', "query text is not valid Unicode (lone surrogate U+D800)"),
])
def test_text_that_is_not_utf8_is_refused_before_it_is_read(lexicon, text, message):
    with pytest.raises(QueryError) as err:
        parse_query(text, lexicon)
    assert type(err.value) is QueryError and str(err.value) == message


# ------------------------------------------------------- text and trees


def _render(q, rng) -> str:
    """Query text for the tree *q* over the builtin lexicon's terms, with
    keywords in random case: a term bare or quoted, a phrase and every
    listed member quoted (a bare member may name a group), each operand of
    AND and OR in parentheses."""
    def keyword(word: str) -> str:
        return rng.choice((word, word.upper(), word.capitalize()))

    if isinstance(q, Term):
        return rng.choice((q.term, f'"{q.term}"'))
    if isinstance(q, Phrase):
        return f'"{q.text}"'
    names = ", ".join(f'"{m}"' for m in getattr(q, "members", ()))
    if isinstance(q, AnyOf):
        return f"{keyword('any')}({names})"
    if isinstance(q, AtLeastK):
        return f"{keyword('atleast')}({q.k}, {names})"
    joiner = f" {keyword('and' if isinstance(q, And) else 'or')} "
    return joiner.join(f"({_render(part, rng)})" for part in q.parts)


@pytest.mark.parametrize("seed", range(8))
def test_rendered_query_trees_parse_back(lexicon, seed):
    rng = random.Random(seed)
    for _ in range(40):
        q = make_random_query(rng, lexicon, depth=4)
        assert parse_query(_render(q, rng), lexicon) == q


def _token_boundaries(text: str) -> list[int]:
    """The offsets of *text* where a token starts or ends: outside a quoted
    phrase, next to a space, a parenthesis, a comma, a quote or an end."""
    return [i for i in range(len(text) + 1)
            if not text.count('"', 0, i) % 2
            and (text[i - 1:i] in ' (),"' or text[i:i + 1] in ' (),"')]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), char=st.sampled_from("'-_*]€"), data=st.data())
def test_a_character_that_starts_no_token_is_found_wherever_it_stands(lexicon, seed, char,
                                                                      data):
    rng = random.Random(seed)
    text = _render(make_random_query(rng, lexicon, depth=3), rng)
    at = data.draw(st.sampled_from(_token_boundaries(text)))
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text[:at] + char + text[at:], lexicon)
    offset = len(text[:at].encode("utf-8"))
    assert type(err.value) is QuerySyntaxError
    assert str(err.value) == f"unexpected character {char!r} (byte offset {offset})"


@pytest.fixture(scope="module")
def random_index():
    lexicon = builtin_lexicon()
    docs = make_random_corpus(random.Random(21), lexicon, 300, (2021, 2022, 2023))
    return lexicon, build_index(docs, lexicon)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_series_named_by_query_text_counts_what_the_query_counts(random_index, seed):
    lexicon, index = random_index
    rng = random.Random(seed)
    text = _render(make_random_query(rng, lexicon, depth=3), rng)
    q = parse_query(text, lexicon)
    series = series_from_index(index, text)
    assert series.series_id == text
    assert series.points == {year: (eval_count(index, q, year), index.total(year))
                             for year in index.years}


@pytest.mark.parametrize("text, error", [
    ("intricate" + " " * 50_000, None),
    ("any(" + " " * 50_000, "expected a group or term name (byte offset 50004)"),
    ("intricate" + " \t" * 25_000 + "]", "unexpected character ']' (byte offset 50009)"),
    ("intricate " + "]" * 50_000, "unexpected character ']' (byte offset 10)"),
    ("intricate" + " OR intricate" * 3845 + "]", "unexpected character ']' (byte offset 49994)"),
], ids=["trailing", "trailing-after-an-error", "before-a-bad-character", "bad-characters",
        "after-a-long-query"])
def test_long_whitespace_runs_take_linear_time(lexicon, text, error):
    # A token search that started again at each character of a trailing
    # whitespace run, or read the rest of the text at each character that
    # starts no token, would take minutes here, not milliseconds.
    start = time.perf_counter()
    if error is None:
        assert parse_query(text, lexicon) == Term("intricate")
    else:
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text, lexicon)
        assert str(err.value) == error
    assert time.perf_counter() - start < 5


# ------------------------------------------------- lexers and keywords

# A lexicon whose names hit every way a name resolves: a case-sensitive
# entry beside a folded one (so "Gpt" is ambiguous), joined words, a phrase
# and a strength group.
_MIXED = Lexicon("mixed", (
    TermEntry("GPT", "disclosure", case_sensitive=True), TermEntry("gpt", "disclosure"),
    TermEntry("well-known", "adjective"), TermEntry("don't", "adverb"),
    TermEntry("large language model", "disclosure"), TermEntry("notable", "adjective"),
), {"strong": ["well-known", "notable"]})
_LEXICONS = {"builtin": builtin_lexicon(), "mixed": _MIXED}
_NAMES = sorted({name for lex in _LEXICONS.values() for name in (*lex.terms(), *lex.groups())}
                | {"zzq", "a-", "-b", "o'", "x2", "2x"})
_KEYWORDS = ("and", "or", "any", "atleast")
# Whitespace that str.isspace() and re's \s match, \x1c-\x1f among it.
_SPACE = st.text(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f", max_size=2)


def _any_case(word: str):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


_FRAGMENT = st.one_of(
    st.sampled_from(_NAMES).flatmap(_any_case),
    st.sampled_from(_KEYWORDS).flatmap(_any_case),
    st.sampled_from(("any(", "atleast(1,", "atleast(2, ")).flatmap(_any_case),
    st.sampled_from(_NAMES).map(lambda name: f'"{name}"'),
    st.text("abAB '-19\t\x1c", max_size=6).map(lambda text: f'"{text}"'),
    st.integers(0, 12).map(str),
    st.sampled_from(("(", ")", ",", "'", "-", '"')),
    st.characters(max_codepoint=127),
)


@st.composite
def _ascii_queries(draw) -> str:
    """ASCII query text: fragments after whitespace, or a rendered query
    tree with its spaces drawn from the whitespace above, as it is, in
    upper case or with no quotes."""
    if draw(st.booleans()):
        parts = draw(st.lists(st.tuples(_SPACE, _FRAGMENT), max_size=14))
        return "".join(space + fragment for space, fragment in parts) + draw(_SPACE)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    text = _render(make_random_query(rng, _LEXICONS["builtin"], depth=3), rng)
    text = draw(st.sampled_from((text, text.upper(), text.replace('"', ""))))
    return "".join(word + draw(_SPACE.filter(bool)) for word in text.split(" "))


def _parsed(text: str, lexicon: Lexicon):
    """The query *text* parses to, or the QuerySyntaxError it raises."""
    try:
        return parse_query(text, lexicon)
    except QuerySyntaxError as exc:
        return exc


@settings(max_examples=500, deadline=None)
@given(lexicon_name=st.sampled_from(sorted(_LEXICONS)), text=_ascii_queries())
def test_the_ascii_lexer_reads_what_the_unicode_lexer_reads(lexicon_name, text):
    # A leading U+3000, ideographic space, sends the text through the
    # Unicode lexer and moves every offset 3 bytes on.
    lexicon = _LEXICONS[lexicon_name]
    assert text.isascii()
    ascii_read, unicode_read = _parsed(text, lexicon), _parsed("\u3000" + text, lexicon)
    if not isinstance(ascii_read, QuerySyntaxError):
        assert unicode_read == ascii_read
        return
    assert type(unicode_read) is type(ascii_read)
    assert unicode_read.offset == ascii_read.offset + 3
    message = str(ascii_read).removesuffix(f" (byte offset {ascii_read.offset})")
    assert str(unicode_read) == f"{message} (byte offset {ascii_read.offset + 3})"


@pytest.mark.parametrize("word, node", [("or", Or), ("and", And)])
def test_every_case_spelling_of_a_keyword_is_the_keyword(lexicon, word, node):
    spellings = {"".join(s) for s in itertools.product(*zip(word, word.upper()))}
    assert len(spellings) == 2 ** len(word)
    for spelling in spellings:
        assert parse_query(f"blue {spelling} red", lexicon) == node((Term("blue"), Term("red")))
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(spelling, lexicon)
        assert str(err.value) == f"unexpected keyword {spelling!r} (byte offset 0)"


@pytest.mark.parametrize("word", ["orr", "an", "nd", "andd", "o", "r", "nor", "AN", "Andy",
                                  "OR'd", "and-or", "ſor"])
def test_a_near_miss_of_a_keyword_is_a_word(lexicon, word):
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(f"blue {word} red", lexicon)
    assert str(err.value) == f"unexpected input {word!r} (byte offset 5)"
    assert parse_query(word, lexicon) == Term(word.casefold())


def test_no_character_but_an_ascii_letter_folds_to_letters_of_a_keyword():
    # The parser reads a keyword by its case spellings, which equals folding
    # it only while this holds. Today ſ and K (Kelvin) are the non-ASCII
    # characters that fold to one ASCII letter, s and k; none folds to "".
    to_letters = [c for c in map(chr, range(0x80, 0x110000))
                  if not c.casefold() or c.casefold().isascii() and c.casefold().isalpha()]
    assert {"ſ", "K"} <= set(to_letters)
    assert [c for c in to_letters if set(c.casefold()) <= set("andor")] == []
