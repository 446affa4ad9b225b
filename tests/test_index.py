from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdrift import (
    And,
    AnyOf,
    AtLeastK,
    Document,
    IndexBuildError,
    IndexBuilder,
    IndexChecksumError,
    IndexFileError,
    IndexVersionError,
    Lexicon,
    Or,
    Phrase,
    Term,
    TermEntry,
    UnindexedTermError,
    UnknownYearError,
    YearTermIndex,
    build_index,
    builtin_lexicon,
    bundled_corpus_path,
    category_skew,
    eval_count,
    eval_count_scan,
    load_corpus,
    load_index,
    parse_query,
    save_index,
    series_from_index,
)

from lexdrift.cli import main
from lexdrift.lexicon import lexicon_to_dict
from lexdrift.index import _GATE_MAX_NEEDLES, compile_predicate, scan_index
from lexdrift.query import query_vocabulary

from conftest import (
    FILLER,
    brute_force_count,
    brute_force_skew,
    make_random_corpus,
    make_random_query,
)

# A version 1 index of the bundled sample corpus, written by the version 1
# writer; CHANGES.md says how it was made.
V1_SAMPLE = Path(__file__).parent / "data" / "sample-v1.idx"


def _docs(*texts_by_year: tuple[int, str]) -> list[Document]:
    return [
        Document(id=f"d{i}", year=year, text=text)
        for i, (year, text) in enumerate(texts_by_year)
    ]


# ------------------------------------------------------------------- build


def test_basic_df(lexicon):
    docs = _docs((2023, "an intricate proof"), (2023, "plain prose"))
    index = build_index(docs, lexicon)
    assert index.df("intricate", 2023) == 1
    assert index.total(2023) == 2


def test_df_accepts_a_name_equal_to_an_entry_ignoring_case(lexicon):
    docs = _docs((2023, "an Intricate proof"), (2023, "intricate"), (2023, "plain"))
    index = build_index(docs, lexicon)
    assert index.df("INTRICATE", 2023) == index.df("intricate", 2023) == 2


def test_presence_not_frequency(lexicon):
    docs = _docs((2023, "intricate intricate intricate"))
    index = build_index(docs, lexicon)
    assert index.df("intricate", 2023) == 1


def test_df_matches_brute_force_everywhere(lexicon):
    rng = random.Random(7)
    docs = make_random_corpus(rng, lexicon, 200, (2021, 2022, 2023))
    index = build_index(docs, lexicon)
    for term in lexicon.terms():
        for year in index.years:
            assert index.df(term, year) == brute_force_count(
                docs, Term(term), year
            ), (term, year)


def test_pair_df_symmetric_and_bounded(lexicon):
    rng = random.Random(8)
    docs = make_random_corpus(rng, lexicon, 150, (2022, 2023))
    index = build_index(docs, lexicon)
    terms = lexicon.terms()[:8]
    for year in index.years:
        for a in terms:
            for b in terms:
                pab = eval_count(index, And((Term(a), Term(b))), year)
                assert pab == eval_count(index, And((Term(b), Term(a))), year)
                assert pab <= min(index.df(a, year), index.df(b, year))
                assert pab == brute_force_count(
                    docs, And((Term(a), Term(b))), year
                )


def test_duplicate_id_rejected(lexicon):
    builder = IndexBuilder(lexicon)
    builder.add(Document(id="a", year=2023, text="x"))
    with pytest.raises(IndexBuildError, match="duplicate"):
        builder.add(Document(id="a", year=2023, text="y"))


def test_year_out_of_range_rejected(lexicon):
    builder = IndexBuilder(lexicon, min_year=2020, max_year=2023)
    with pytest.raises(IndexBuildError, match="1999"):
        builder.add(Document(id="a", year=1999, text="x"))


def test_build_independent_of_order_and_partitioning(lexicon):
    rng = random.Random(9)
    docs = make_random_corpus(rng, lexicon, 120, (2021, 2022, 2023))

    whole = build_index(docs, lexicon)

    shuffled = docs[:]
    rng.shuffle(shuffled)
    reordered = build_index(shuffled, lexicon)

    left = IndexBuilder(lexicon)
    left.add_all(docs[:40])
    right = IndexBuilder(lexicon)
    right.add_all(docs[40:])
    left.merge(right)
    merged = left.finish()

    for index in (reordered, merged):
        assert index.years == whole.years
        for year in whole.years:
            assert index.total(year) == whole.total(year)
            for term in lexicon.terms():
                assert index.df(term, year) == whole.df(term, year)
        assert list(index.doc_marks()) == list(whole.doc_marks())


def test_merge_rejects_overlapping_ids(lexicon):
    a = IndexBuilder(lexicon)
    a.add(Document(id="x", year=2023, text="one"))
    b = IndexBuilder(lexicon)
    b.add(Document(id="x", year=2023, text="two"))
    with pytest.raises(IndexBuildError, match="x"):
        a.merge(b)


def test_merge_rejects_a_different_lexicon(lexicon):
    other = IndexBuilder(Lexicon("other", (TermEntry("blue", "control"),)))
    with pytest.raises(IndexBuildError, match="different lexicons"):
        IndexBuilder(lexicon).merge(other)


def test_eval_count_rejects_what_is_not_a_query(lexicon):
    docs = _docs((2023, "intricate"))
    index = build_index(docs, lexicon)
    with pytest.raises(TypeError, match="not a query node"):
        eval_count(index, "intricate", 2023)
    with pytest.raises(TypeError, match="not a query node"):
        compile_predicate(index, Or((Term("intricate"), "notable")))
    with pytest.raises(TypeError, match="not a query node"):
        eval_count_scan(docs, lexicon, "intricate", 2023)


def test_empty_corpus(lexicon):
    index = build_index([], lexicon)
    assert index.years == ()
    assert index.doc_count == 0


# ---------------------------------------------------------------- queries


def test_atleast_one_equals_any(lexicon):
    rng = random.Random(10)
    docs = make_random_corpus(rng, lexicon, 150, (2022, 2023))
    index = build_index(docs, lexicon)
    group = lexicon.groups()["strong"]
    for year in index.years:
        assert eval_count(index, AtLeastK(1, group), year) == eval_count(
            index, AnyOf(group), year
        )


def test_and_of_two_terms_equals_pair_df(lexicon):
    rng = random.Random(11)
    docs = make_random_corpus(rng, lexicon, 150, (2023,))
    index = build_index(docs, lexicon)
    q = And((Term("intricate"), Term("notable")))
    assert eval_count(index, q, 2023) == eval_count(
        index, And((Term("notable"), Term("intricate"))), 2023
    ) == brute_force_count(docs, q, 2023)


def test_atleast_monotone_in_k(lexicon):
    rng = random.Random(12)
    docs = make_random_corpus(rng, lexicon, 200, (2023,))
    index = build_index(docs, lexicon)
    group = lexicon.groups()["strong"]
    counts = [
        eval_count(index, AtLeastK(k, group), 2023)
        for k in range(1, len(group) + 1)
    ]
    assert counts == sorted(counts, reverse=True)


def test_or_bounds_and_inclusion_exclusion(lexicon):
    rng = random.Random(13)
    docs = make_random_corpus(rng, lexicon, 200, (2023,))
    index = build_index(docs, lexicon)
    a, b = "intricate", "meticulously"
    union = eval_count(index, Or((Term(a), Term(b))), 2023)
    assert union == (
        index.df(a, 2023) + index.df(b, 2023)
        - eval_count(index, And((Term(a), Term(b))), 2023)
    )


def test_random_queries_match_brute_force(lexicon):
    rng = random.Random(14)
    docs = make_random_corpus(rng, lexicon, 200, (2021, 2022, 2023))
    index = build_index(docs, lexicon)
    for _ in range(150):
        q = make_random_query(rng, lexicon)
        year = rng.choice((2021, 2022, 2023))
        assert eval_count(index, q, year) == brute_force_count(docs, q, year), q


def test_phrase_query(lexicon):
    docs = _docs(
        (2023, "we used a large language model today"),
        (2023, "large scale language of the model"),
    )
    index = build_index(docs, lexicon)
    q = Phrase(("large", "language", "model"))
    assert eval_count(index, q, 2023) == 1


def test_unknown_year(lexicon):
    index = build_index(_docs((2023, "x")), lexicon)
    with pytest.raises(UnknownYearError):
        eval_count(index, Term("intricate"), 1990)


def test_unindexed_term_directs_to_scan(lexicon):
    docs = _docs((2023, "results lie outwith the expected range"))
    index = build_index(docs, lexicon)
    for q in (Term("zebra"), And((Term("gpt"), Term("zebra"))),
              AtLeastK(1, ("intricate", "zebra"))):
        with pytest.raises(UnindexedTermError, match="scan"):
            eval_count(index, q, 2023)


def test_scan_fallback_counts_unindexed_terms(lexicon):
    docs = _docs(
        (2023, "results lie outwith the zebra range"),
        (2023, "nothing here"),
    )
    assert eval_count_scan(docs, lexicon, Term("zebra"), 2023) == 1
    assert eval_count_scan(docs, lexicon, Term("zebra"), 2022) == 0
    assert eval_count_scan([], lexicon, Term("zebra"), 2023) == 0


def test_scan_index_holds_only_the_query_terms(lexicon):
    docs = _docs((2023, "an intricate and notable zebra"))
    scan = scan_index(docs, lexicon, And((Term("intricate"), Term("zebra"))))
    assert scan.lexicon == lexicon and scan.years == (2023,) and scan.total(2023) == 1
    # "notable" is a lexicon term outside the scan's vocabulary, and
    # "Zebra" is neither a scanned term nor a lexicon entry.
    for q in (Term("notable"), Or((Term("zebra"), Term("notable"))), Term("Zebra")):
        with pytest.raises(UnindexedTermError):
            eval_count(scan, q, 2023)
        with pytest.raises(UnindexedTermError):
            category_skew(scan, q, 2023)


def test_scan_index_cannot_be_saved(tmp_path, lexicon):
    scan = scan_index(_docs((2023, "an intricate zebra")), lexicon, Term("zebra"))
    path = tmp_path / "scan.idx"
    with pytest.raises(IndexBuildError) as info:
        save_index(scan, path)
    assert "\n" not in str(info.value)
    assert not path.exists()


def test_scan_agrees_with_index_on_vocabulary(lexicon):
    rng = random.Random(15)
    docs = make_random_corpus(rng, lexicon, 100, (2022, 2023))
    index = build_index(docs, lexicon)
    for _ in range(50):
        q = make_random_query(rng, lexicon)
        year = rng.choice((2022, 2023))
        assert eval_count_scan(docs, lexicon, q, year) == eval_count(
            index, q, year
        )


def test_entries_equal_ignoring_case_each_count():
    # Two case-insensitive entries with the same token: each gets its bit.
    lex = Lexicon("dup", (
        TermEntry("Delve", "adjective"),
        TermEntry("delve", "adjective"),
    ))
    docs = _docs((2023, "we delve into it"), (2023, "nothing here"))
    index = build_index(docs, lex)
    for term in ("Delve", "delve"):
        q = Term(term)
        assert eval_count(index, q, 2023) == eval_count_scan(docs, lex, q, 2023) \
            == brute_force_count(docs, q, 2023) == 1


def test_term_without_tokens_counts_nothing(lexicon):
    docs = _docs((2023, "figure 123 shows it"), (2023, "plain prose"))
    assert eval_count_scan(docs, lexicon, Term("123"), 2023) == 0
    assert brute_force_count(docs, Term("123"), 2023) == 0


def test_multi_token_term_matches_as_a_phrase(lexicon):
    docs = _docs(
        (2023, "we used a Large Language Model today"),
        (2023, "large scale language of the model"),
        (2023, "a bright red fox"),
    )
    index = build_index(docs, lexicon)
    for q in (Term("large language model"), Term("red fox")):
        assert eval_count_scan(docs, lexicon, q, 2023) == brute_force_count(docs, q, 2023) == 1
    assert eval_count(index, Term("large language model"), 2023) == 1


def test_case_sensitive_entry_scan():
    lex = Lexicon("cs", (
        TermEntry("gpt", "disclosure"),
        TermEntry("GPT", "disclosure", case_sensitive=True),
    ))
    docs = _docs((2023, "we used GPT here"), (2023, "we used gpt here"))
    assert eval_count_scan(docs, lex, Term("gpt"), 2023) == 2
    assert eval_count_scan(docs, lex, Term("GPT"), 2023) == 1


def test_case_sensitive_phrase_by_index_scan_and_brute_force():
    lex = Lexicon("cs", (
        TermEntry("Large Language Model", "disclosure", case_sensitive=True),
    ))
    docs = _docs(
        (2023, "we used a Large Language Model today"),
        (2023, "Large Language, then a Model"),
        (2023, "Model Large Language"),
        (2022, "a large language model, in lower case"),
    )
    index = build_index(docs, lex)
    q = Term("Large Language Model")
    assert eval_count(index, q, 2023) == eval_count_scan(docs, lex, q, 2023) \
        == brute_force_count(docs, q, 2023) == 1
    # The case-folding oracle would count the lower-case mention; the entry
    # is case-sensitive, so neither the index nor a scan does.
    assert eval_count(index, q, 2022) == eval_count_scan(docs, lex, q, 2022) == 0
    assert brute_force_count(docs, q, 2022, cased=frozenset({q.term})) == 0


@pytest.mark.parametrize("entry, q", [
    ("GPT", Term("gpt")),
    ("Large Language Model", Term("large language model")),
    ("Large Language Model", Phrase(("large", "language", "model"))),
], ids=["term", "phrase-as-term", "phrase"])
def test_a_case_sensitive_entry_named_in_another_case_counts_alike_on_a_scan_and_an_index(
        entry, q):
    # The name means the one entry equal to it ignoring case, matched as
    # that entry is spelled, on a scan as on the index.
    lex = Lexicon("cs", (TermEntry(entry, "disclosure", case_sensitive=True),))
    docs = _docs((2023, f"we used a {entry.casefold()}"), (2023, f"we used a {entry}"))
    assert eval_count(build_index(docs, lex), q, 2023) == eval_count_scan(docs, lex, q, 2023) == 1


def test_a_name_case_alone_tells_apart_from_two_entries_is_scanned_case_folded():
    lex = Lexicon("cs", (TermEntry("GPT", "disclosure", case_sensitive=True),
                         TermEntry("Gpt", "disclosure", case_sensitive=True)))
    docs = _docs((2023, "we used gpt"), (2023, "we used GPT"), (2023, "we used Gpt"))
    with pytest.raises(UnindexedTermError):
        eval_count(build_index(docs, lex), Term("gpt"), 2023)
    assert eval_count_scan(docs, lex, Term("gpt"), 2023) == 3


@pytest.mark.parametrize("term, word", [("red", "fred"), ("intricate", "intricately")])
def test_a_term_inside_a_longer_word_counts_nothing(lexicon, term, word):
    # A scan looks for its few words as substrings before it tokenizes a
    # document; finding one inside a longer word is not a match.
    docs = _docs((2023, f"Thereafter {word.upper()} and {word} were required"), (2022, f"a {term}"))
    for year, count in ((2023, 0), (2022, 1)):
        assert eval_count_scan(docs, lexicon, Term(term), year) == count
        assert brute_force_count(docs, Term(term), year) == count


def test_an_and_whose_rare_part_sits_inside_a_longer_word_counts_nothing(lexicon):
    # "fred" lets the 2023 document through the substring test of the
    # query, and its tokens then hold no "red".
    docs = _docs((2023, "fred read an intricate proof"), (2022, "an intricate red proof"))
    index = build_index(docs, lexicon)
    q = And((Term("intricate"), Term("red")))
    for year, count in ((2023, 0), (2022, 1)):
        assert eval_count_scan(docs, lexicon, q, year) == eval_count(index, q, year) \
            == brute_force_count(docs, q, year) == count


@pytest.mark.parametrize("q", [
    AtLeastK(2, ("intricate", "intricate")),  # a member listed twice counts twice
    AtLeastK(2, ("red", "intricate", "meticulous")),  # the first member missing
], ids=["twice", "first-missing"])
def test_atleast_counts_alike_on_a_scan_and_an_index(lexicon, q):
    docs = _docs((2023, "an intricate and meticulous proof"), (2023, "plain prose"))
    assert eval_count_scan(docs, lexicon, q, 2023) == eval_count(build_index(docs, lexicon), q, 2023) \
        == brute_force_count(docs, q, 2023) == 1



# Malformed lines of each kind, and a blank one, between marked documents.
_SKIPPED_CORPUS = "".join(line + "\n" for line in [
    '{"id": "a", "year": 2022, "text": "an intricate plan by ChatGPT", "categories": ["x"]}',
    '{"id": "b", "year": 2022, "text": "plain prose", "categories": ["y"]}',
    'garbage',
    '{"id": "c", "year": 2023, "text": "meticulous and innovative", "categories": ["x"]}',
    '{"id": "d", "year": 2023}',
    '{"id": "a", "year": 2023, "text": "a repeated id, intricate"}',
    '',
    '{"id": "e", "year": 2023, "text": "a notable llm and a commendable plan"}',
    '{"id": "f", "year": 1999, "text": "intricate, and out of range"}',
    '{"id": "g", "year": 2023, "text": "intricate", "categories": ["\\ud800"]}',
    '{"id": "h", "year": 2024, "text": "Intricate work with a large language model"}',
    # "\udcff" is written as the byte 0xff, which is not UTF-8.
    '{"id": "i", "year": 2024, "text": "invaluable, \udcff", "categories": ["z"]}',
    '{"id": "j", "year": 2024, "text": "lucidly written"}',
]).encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("query, matches", [
    ("any(strong) AND any(disclosure)", (1, 1, 1)),  # 13 needles, tested before tokenizing
    ("any(adjective, adverb)", (1, 2, 2)),  # 24 needles, too many to test
], ids=["gated", "ungated"])
def test_a_scan_that_skips_records_prints_what_an_index_of_them_prints(tmp_path, capsys, query,
                                                                        matches):
    corpus, index = tmp_path / "c.jsonl", str(tmp_path / "c.idx")
    corpus.write_bytes(_SKIPPED_CORPUS)
    skipped = "skipped 6 malformed records (lines 3, 5, 6, 9, 10, ...)\n"
    assert main(["index", "--corpus", str(corpus), "--out", index, "--on-error", "skip"]) == 0
    assert capsys.readouterr().err == skipped
    assert main(["query", query, "--index", index, "--format", "csv"]) == 0
    from_index = capsys.readouterr()
    assert from_index == ("year,matches,total\n" + "".join(
        f"{year},{n},2\n" for year, n in zip((2022, 2023, 2024), matches)), "")
    assert main(["query", query, "--corpus", str(corpus), "--on-error", "skip",
                 "--format", "csv"]) == 0
    assert capsys.readouterr() == (from_index.out, skipped)


# Letters that case-fold to two (ß, ﬁ) or to themselves, in both cases.
_FUZZ_LETTERS = "aeirdAEIRDßﬁ"
# Text also holds joiners, straight and curly, a numeric non-letter (²), a
# soft hyphen, a digit and spaces.
_FUZZ_TEXT = st.text(_FUZZ_LETTERS + "'’-²\u00ad0 ", max_size=12)
_FUZZ_WORD = st.text(_FUZZ_LETTERS, min_size=1, max_size=3)
_FUZZ_JOINED = st.tuples(_FUZZ_WORD, st.sampled_from("-'’"), _FUZZ_WORD).map("".join)


@st.composite
def _fuzz_lexicon(draw, wide: bool) -> tuple[Lexicon, frozenset[str]]:
    """A lexicon of single words, words joined by a hyphen or apostrophe
    and a phrase of two or three of them, some of them case-sensitive, and
    its case-sensitive terms. With *wide*, its terms hold more needles than
    a scan or a build may test as substrings (a word or joined word holds
    one, the phrase one a word); without, no more than that."""
    limit = _GATE_MAX_NEEDLES
    folded = []
    if wide:
        folded = draw(st.lists(_FUZZ_WORD, min_size=limit + 1, max_size=limit + 6,
                               unique_by=str.casefold))
    phrase = " ".join(draw(st.lists(_FUZZ_WORD | _FUZZ_JOINED, min_size=2, max_size=3)))
    others = [*draw(st.lists(_FUZZ_WORD | _FUZZ_JOINED, max_size=limit - 3)), phrase]
    terms = list(dict.fromkeys([*folded, *others]))
    cased = frozenset(t for t in others if t not in folded and draw(st.booleans()))
    return Lexicon("fuzz", [TermEntry(t, "disclosure", t in cased) for t in terms]), cased


def _fuzz_docs(terms: tuple[str, ...]) -> st.SearchStrategy[list[Document]]:
    """Documents of 2023 holding a term as written, upper-cased, case-folded
    or with a curly apostrophe, between random text."""
    variant = st.sampled_from(terms).flatmap(
        lambda t: st.sampled_from((t, t.upper(), t.casefold(), t.replace("'", "’"))))
    texts = st.lists(_FUZZ_TEXT | variant, max_size=6).map("".join)
    docs = st.lists(st.tuples(texts, st.sampled_from("xy")), min_size=1, max_size=8)
    return docs.map(lambda ds: [Document(f"d{i}", 2023, text, (cat,))
                                for i, (text, cat) in enumerate(ds)])


@pytest.mark.parametrize("wide", [False, True], ids=["few-words", "many-words"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scans_and_builds_count_like_brute_force_on_awkward_text(wide, data):
    """Whether or not a scan or a build first looks for its words as
    substrings, it counts what the oracle counts, on text that takes every
    tokenizer path."""
    lex, cased = data.draw(_fuzz_lexicon(wide))
    terms = lex.terms()
    docs = data.draw(_fuzz_docs(terms))
    index = build_index(docs, lex)
    for q in [AnyOf(terms), *map(Term, terms)]:
        expected = brute_force_count(docs, q, 2023, cased)
        assert eval_count_scan(docs, lex, q, 2023) == expected, q
        assert eval_count(index, q, 2023) == expected, q


def _fuzz_query(terms: tuple[str, ...]) -> st.SearchStrategy:
    """AND and OR trees at most two deep over the terms, the phrase, and
    any() and atleast() of terms, in half of them the first one listed
    twice."""
    phrase = next(t for t in terms if " " in t)
    members = st.lists(st.sampled_from(terms), min_size=1, max_size=4).flatmap(
        lambda ms: st.sampled_from((tuple(ms), (*ms, ms[0]))))
    leaf = st.one_of(
        st.sampled_from(terms).map(Term), st.just(Phrase(tuple(phrase.split(" ")))),
        members.map(AnyOf),
        members.flatmap(lambda ms: st.integers(1, len(ms)).map(lambda k: AtLeastK(k, ms))),
    )

    def tree(part):
        return st.tuples(st.sampled_from((And, Or)), st.lists(part, min_size=1, max_size=3)) \
            .map(lambda node: node[0](tuple(node[1])))
    return leaf | tree(leaf | tree(leaf))


def _renamed(q, name):
    """*q* with each term, phrase and member renamed by *name*."""
    if isinstance(q, Term):
        return Term(name(q.term))
    if isinstance(q, Phrase):
        return Phrase(tuple(name(q.text).split(" ")))
    if isinstance(q, AnyOf):
        return AnyOf(tuple(map(name, q.members)))
    if isinstance(q, AtLeastK):
        return AtLeastK(q.k, tuple(map(name, q.members)))
    return type(q)(tuple(_renamed(p, name) for p in q.parts))


def _spellings(lex: Lexicon, term: str) -> list[str]:
    """*term* and each of its re-casings that names that entry alone."""
    return [term, *(v for v in (term.upper(), term.casefold(), term.swapcase())
                    if lex.resolve(v) == (term,))]


@pytest.mark.parametrize("wide", [False, True], ids=["few-words", "many-words"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scans_of_query_trees_count_like_brute_force_and_skew_like_builds(wide, data):
    """A scan that tests its whole query on substrings first, or one whose
    query holds too many needles for that, counts what the oracle counts
    and skews like the lexicon's index, also where the query names an
    entry in another case."""
    lex, cased = data.draw(_fuzz_lexicon(wide))
    docs = data.draw(_fuzz_docs(lex.terms()))
    index = build_index(docs, lex)
    for q in data.draw(st.lists(_fuzz_query(lex.terms()), min_size=1, max_size=4)):
        expected = brute_force_count(docs, q, 2023, cased)
        skew = category_skew(index, q, 2023)
        assert eval_count_scan(docs, lex, q, 2023) == expected, q
        assert category_skew(scan_index(docs, lex, q), q, 2023) == skew, q
        recased = _renamed(q, lambda t: data.draw(st.sampled_from(_spellings(lex, t))))
        assert eval_count_scan(docs, lex, recased, 2023) == eval_count(index, recased, 2023) \
            == expected, recased
        assert category_skew(scan_index(docs, lex, recased), recased, 2023) \
            == category_skew(index, recased, 2023) == skew, recased


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compiled_predicates_hold_on_the_documents_eval_count_counts(data):
    """A member listed twice in atleast() counts twice here too."""
    lex, _ = data.draw(st.booleans().flatmap(_fuzz_lexicon))
    terms = lex.terms()
    texts = data.draw(st.lists(st.lists(st.sampled_from(terms), max_size=4).map(" ".join),
                               min_size=1, max_size=8))
    index = build_index([Document(f"d{i}", 2023, text) for i, text in enumerate(texts)], lex)
    masks = [mark[2] for mark in index.doc_marks()]
    for q in data.draw(st.lists(_fuzz_query(terms), min_size=1, max_size=4)):
        assert sum(map(compile_predicate(index, q), masks)) == eval_count(index, q, 2023), q


def test_a_compiled_predicate_looks_its_terms_up_when_compiled(lexicon):
    index = build_index(_docs((2023, "an intricate plan")), lexicon)
    q = AtLeastK(2, ("intricate", "intricate"))
    assert compile_predicate(index, q)(next(index.doc_marks())[2]) is True
    with pytest.raises(UnindexedTermError):
        compile_predicate(index, And((q, AnyOf(("notable", "zebra")))))


def test_parse_and_eval_together(lexicon):
    docs = _docs(
        (2023, "an intricate and meticulous study using chatgpt"),
        (2023, "an intricate study"),
        (2023, "a commendable and meticulously argued case"),
    )
    index = build_index(docs, lexicon)
    q = parse_query("atleast(2, strong)", lexicon)
    assert eval_count(index, q, 2023) == 2
    q = parse_query("any(strong) and any(disclosure)", lexicon)
    assert eval_count(index, q, 2023) == 1


# ------------------------------------------------------------- persistence


def test_round_trip(tmp_path, lexicon):
    rng = random.Random(16)
    docs = make_random_corpus(rng, lexicon, 80, (2021, 2022, 2023))
    index = build_index(docs, lexicon)
    path = tmp_path / "corpus.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.lexicon == index.lexicon
    assert loaded.years == index.years
    for year in index.years:
        assert loaded.total(year) == index.total(year)
        for term in lexicon.terms():
            assert loaded.df(term, year) == index.df(term, year)
    for _ in range(30):
        q = make_random_query(rng, lexicon)
        year = rng.choice(index.years)
        assert eval_count(loaded, q, year) == eval_count(index, q, year)


def test_truncated_file(tmp_path, lexicon):
    path = tmp_path / "corpus.idx"
    save_index(build_index(_docs((2023, "x")), lexicon), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(IndexChecksumError):
        load_index(path)


def test_corrupted_payload(tmp_path, lexicon):
    path = tmp_path / "corpus.idx"
    save_index(build_index(_docs((2023, "x")), lexicon), path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexChecksumError):
        load_index(path)


def test_future_version(tmp_path, lexicon):
    path = tmp_path / "corpus.idx"
    save_index(build_index(_docs((2023, "x")), lexicon), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexVersionError, match="99"):
        load_index(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "corpus.idx"
    path.write_bytes(b"not an index file at all")
    with pytest.raises(IndexFileError):
        load_index(path)


# Index file header: magic, format version, payload length, SHA-256.
_HEADER = struct.Struct("<4sHQ32s")


def _write_container(path, blob: bytes, version: int = 1) -> None:
    """An index file around *blob* with a valid header and checksum."""
    header = _HEADER.pack(b"LXDX", version, len(blob), hashlib.sha256(blob).digest())
    path.write_bytes(header + blob)


def _saved_payload(lexicon) -> dict:
    """A one-document index as a version 1 payload: one JSON row per
    document."""
    index = build_index(_docs((2023, "an intricate proof")), lexicon)
    return {
        "format": "lexdrift.index",
        "lexicon": lexicon_to_dict(lexicon),
        "min_year": index.year_range[0],
        "max_year": index.year_range[1],
        "docs": [[i, y, m, list(c)] for i, y, m, c in index.doc_marks()],
    }


def _without_lexicon(payload: dict) -> bytes:
    del payload["lexicon"]
    return zlib.compress(json.dumps(payload).encode())


def _with_doc_field(position: int, value):
    def edit(payload: dict) -> bytes:
        payload["docs"][0][position] = value
        return zlib.compress(json.dumps(payload).encode())
    return edit


@pytest.mark.parametrize("make_blob", [
    _without_lexicon,
    lambda payload: zlib.compress(b"{not json"),
    lambda payload: b"plain bytes, not deflated",
    lambda payload: zlib.compress(b"[1, 2]"),
    lambda payload: zlib.compress(b"\xff\xfe"),
    _with_doc_field(1, "2023"),
    _with_doc_field(2, "1"),
    _with_doc_field(2, 1 << 60),
    _with_doc_field(3, [7]),
    _with_doc_field(3, None),
    _with_doc_field(3, ["\ud800x"]),
    lambda payload: zlib.compress(b"[" * 200_000),
    lambda payload: zlib.compress(_with_long_integer(json.dumps(payload))),
], ids=["missing-key", "not-json", "not-zlib", "not-an-object", "not-utf8",
        "year-not-int", "mask-not-int", "mask-past-vocabulary",
        "category-not-str", "categories-not-list", "category-lone-surrogate",
        "nested-too-deeply", "integer-too-long"])
def test_malformed_payload_is_an_index_file_error(tmp_path, lexicon, capsys, make_blob):
    path = tmp_path / "bad.idx"
    _write_container(path, make_blob(_saved_payload(lexicon)))
    _assert_rejected(path, capsys)


def _with_long_integer(text: str) -> bytes:
    """The JSON object *text* with one more field: an integer past Python's
    4,300-digit limit for converting text, which json.loads refuses with a
    plain ValueError."""
    return (text[:-1] + f', "x": {"9" * 5000}}}').encode()


def test_a_long_integer_in_a_payload_is_worded_like_other_inputs(tmp_path, lexicon, capsys):
    path = tmp_path / "long.idx"
    _write_container(path, zlib.compress(_with_long_integer(json.dumps(_saved_payload(lexicon)))))
    _assert_rejected(path, capsys, "malformed payload (integer of more than 4300 digits)")


def _assert_rejected(path, capsys, problem: str = "") -> None:
    """Loading *path* is an IndexFileError naming it and *problem*, and a
    query on it exits 1 with one line."""
    with pytest.raises(IndexFileError, match=path.name) as caught:
        load_index(path)
    assert problem in str(caught.value)
    assert main(["query", "intricate", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Three documents of 2023, so one byte per column, with the category table
# [["a"], ["b"]]: documents 0 and 2 are in row 0, "a", document 1 in row 1,
# "b", one byte per document.
_V2_DOCS = [
    Document(id="d0", year=2023, text="an intricate proof", categories=("a",)),
    Document(id="d1", year=2023, text="plain prose", categories=("b",)),
    Document(id="d2", year=2023, text="a notable case", categories=("a",)),
]


def _v2_parts(tmp_path, lexicon) -> tuple[dict, bytearray]:
    """The JSON header and the column bytes of the saved _V2_DOCS index."""
    path = tmp_path / "good.idx"
    save_index(build_index(_V2_DOCS, lexicon), path)
    payload = zlib.decompress(path.read_bytes()[_HEADER.size:])
    (size,) = struct.unpack_from("<I", payload)
    return json.loads(payload[4:4 + size]), bytearray(payload[4 + size:])


def _v2_blob(header: dict, columns: bytes, extra_length: int = 0,
             long_integer: bool = False) -> bytes:
    text = _with_long_integer(json.dumps(header)) if long_integer else json.dumps(header).encode()
    return zlib.compress(struct.pack("<I", len(text) + extra_length) + text + columns)


def test_v2_parts_reassemble_into_the_same_index(tmp_path, lexicon):
    header, columns = _v2_parts(tmp_path, lexicon)
    assert header["years"] == [{"year": 2023, "ids": ["d0", "d1", "d2"],
                                "categories": [["a"], ["b"]]}]
    width = len(lexicon.terms())
    assert len(columns) == width + 3
    assert columns[width:] == bytes([0, 1, 0])
    path = tmp_path / "again.idx"
    _write_container(path, _v2_blob(header, columns), version=2)
    assert list(load_index(path).doc_marks()) == list(build_index(_V2_DOCS, lexicon).doc_marks())


def _column_byte(position: int, value: int):
    """Set one byte of the column bytes: the term columns' bytes come
    first, the documents' category rows last."""
    def edit(header: dict, columns: bytearray) -> bytes:
        columns[position] = value
        return _v2_blob(header, columns)
    return edit


def _year_field(field: str, value):
    def edit(header: dict, columns: bytearray) -> bytes:
        header["years"][0][field] = value
        return _v2_blob(header, columns)
    return edit


@pytest.mark.parametrize("make_blob, problem", [
    (_column_byte(0, 0b1000), "a column of 2023 is wider than its 3 documents"),
    (_column_byte(-1, 2), "a document of 2023 has no row in its category table"),
    (_column_byte(-2, 0), "a category-table row of 2023 has no documents"),
    (lambda header, columns: _v2_blob(header, columns + b"\0"), "1 bytes after the last column"),
    (lambda header, columns: _v2_blob(header, columns[:-1]), "the columns of 2023 are cut short"),
    (_year_field("ids", [7, "d1", "d2"]), "a document id in 2023 is not a string"),
    (_year_field("ids", ["d1", "d0", "d2"]), "the ids of 2023 are not strictly ascending"),
    (_year_field("ids", ["d0", "d0", "d2"]), "the ids of 2023 are not strictly ascending"),
    (_year_field("categories", [["b"], ["a"]]),
     "the category-table rows of 2023 are not strictly ascending"),
    (_year_field("categories", [["a"], ["a"]]),
     "the category-table rows of 2023 are not strictly ascending"),
    (lambda header, columns: _v2_blob(header, columns, extra_length=len(columns) + 1),
     "runs past the payload"),
    (_year_field("categories", [["a"], ["b\udcff"]]),
     "a category in 2023 holds a lone surrogate U+DCFF"),
    (lambda header, columns: zlib.compress(struct.pack("<I", 200_000) + b"[" * 200_000),
     "malformed payload (JSON nested too deeply)"),
    (lambda header, columns: _v2_blob(header, columns, long_integer=True),
     "malformed payload (integer of more than 4300 digits)"),
], ids=["column-wider-than-year", "category-row-past-table", "category-row-without-documents",
        "trailing-bytes", "short-column-block", "id-not-str", "ids-unsorted", "ids-repeated",
        "category-table-unsorted", "category-table-repeated", "header-length-past-payload",
        "category-lone-surrogate", "header-nested-too-deeply", "header-integer-too-long"])
def test_malformed_v2_payload_is_an_index_file_error(tmp_path, lexicon, capsys, make_blob,
                                                     problem):
    header, columns = _v2_parts(tmp_path, lexicon)
    path = tmp_path / "bad.idx"
    _write_container(path, make_blob(header, columns), version=2)
    _assert_rejected(path, capsys, problem)


def test_saved_lone_surrogate_category_is_rejected_on_load(tmp_path, lexicon, capsys):
    # A JSON "\\ud800" escape in a category decodes to a lone surrogate,
    # which no output can print. save_index writes no such file, so this
    # one is made by hand.
    header, columns = _v2_parts(tmp_path, lexicon)
    header["years"][0]["categories"] = [["b"], ["\ud800x"]]
    path = tmp_path / "surrogate.idx"
    _write_container(path, _v2_blob(header, columns), version=2)
    error = f"error: {path}: malformed payload (a category in 2023 holds a lone surrogate U+D800)\n"
    out = tmp_path / "skew.txt"
    for argv in ([], ["--out", str(out)]):
        assert main(["skew", "intricate", "--index", str(path), "--year", "2023", *argv]) == 1
        assert capsys.readouterr() == ("", error)
    assert not out.exists()


@pytest.mark.parametrize("category, problem", [
    ("\ud800x", r"a category in 2023 holds a lone surrogate U\+D800"),
    (7, "a category in 2023 is not a string"),
], ids=["lone-surrogate", "not-a-string"])
def test_save_refuses_a_category_the_loader_refuses(tmp_path, lexicon, category, problem):
    # The corpus reader rejects such a record; a Document built in code
    # reaches the builder unchecked.
    index = build_index([Document("a", 2023, "an intricate plan", (category,))], lexicon)
    path = tmp_path / "bad.idx"
    with pytest.raises(IndexBuildError, match=problem):
        save_index(index, path)
    assert not path.exists()


@pytest.mark.parametrize("category", [7, ["c"]], ids=["int", "unhashable"])
def test_a_category_that_is_no_string_is_a_build_error(lexicon, category):
    # Beside string categories of the same year, it cannot be sorted into
    # the year's category table.
    docs = [Document("a", 2023, "x", (category,)), Document("b", 2023, "y", ("c",))]
    for build in (lambda: build_index(docs, lexicon),
                  lambda: scan_index(docs, lexicon, Term("intricate"))):
        with pytest.raises(IndexBuildError, match="^a category in 2023 is not a string$"):
            build()


# ------------------------------------------------------------ format versions


def _answers(index, lexicon) -> tuple:
    """What a reader can ask of *index*: its rows, every term's document
    frequency, a seeded set of random queries, every group's and term's
    series, and category skews for every year."""
    rng = random.Random(21)
    queries = [make_random_query(rng, lexicon) for _ in range(80)]
    return (
        list(index.doc_marks()),
        {(t, y): index.df(t, y) for t in lexicon.terms() for y in index.years},
        [[eval_count(index, q, y) for y in index.years] for q in queries],
        {name: series_from_index(index, name).points
         for name in (*lexicon.groups(), *lexicon.terms())},
        [category_skew(index, q, y) for q in queries[:20] for y in index.years],
    )


def test_v1_file_answers_like_a_fresh_v2_build(tmp_path, lexicon):
    assert V1_SAMPLE.read_bytes()[4:6] == (1).to_bytes(2, "little")
    path = tmp_path / "sample.idx"
    save_index(build_index(load_corpus(bundled_corpus_path()), lexicon), path)
    assert path.read_bytes()[4:6] == (2).to_bytes(2, "little")
    v1, v2 = load_index(V1_SAMPLE), load_index(path)
    assert (v1.lexicon, v1.year_range, v1.years) == (v2.lexicon, v2.year_range, v2.years)
    assert v1.doc_count == v2.doc_count == 100
    expected = _answers(v2, lexicon)
    assert _answers(v1, lexicon) == expected
    assert _answers(load_index(V1_SAMPLE), lexicon) == expected
    assert any(skew.rows for skew in expected[-1])


def test_awkward_ids_round_trip(tmp_path, lexicon):
    ids = ["line\nbreak", "two words", "astral \U0001F600", "", 'quote"', "tab\t,comma"]
    categories = [(), ("x",), ("informática", "Ökologie"), ("物理",)]
    docs = [Document(id=i, year=2020 + k % 2, text="an intricate case" if k % 3 else "plain",
                     categories=categories[k % 4])
            for k, i in enumerate(ids)]
    index = build_index(docs, lexicon)
    path = tmp_path / "awkward.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert list(loaded.doc_marks()) == list(index.doc_marks())
    assert sorted(m[0] for m in loaded.doc_marks()) == sorted(ids)
    save_index(loaded, tmp_path / "again.idx")
    assert (tmp_path / "again.idx").read_bytes() == path.read_bytes()


def test_repeated_and_unsorted_categories_skew_like_brute_force(tmp_path, lexicon):
    docs = [
        Document(id="a", year=2023, text="intricate", categories=("physics", "physics")),
        Document(id="b", year=2023, text="plain", categories=("physics",)),
        Document(id="c", year=2023, text="intricate and notable", categories=("b", "a")),
        Document(id="d", year=2023, text="notable", categories=("a", "b")),
        Document(id="e", year=2023, text="notable prose", categories=()),
    ]
    index = build_index(docs, lexicon)
    path = tmp_path / "cats.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert list(loaded.doc_marks()) == list(index.doc_marks())
    assert {m[0]: m[3] for m in loaded.doc_marks()} == {d.id: d.categories for d in docs}
    # A scan with a case-sensitive "notable" matches these lower-case
    # documents as brute force does, and one also counts terms outside the
    # lexicon ("plain", "prose"), which only a scan can answer.
    cased = Lexicon("cased", tuple(TermEntry(e.term, e.role, e.term == "notable")
                                   for e in lexicon.entries), lexicon.strength)
    for q in (Term("intricate"), Term("notable"), Term("meticulous"),
              Or((Term("intricate"), Term("notable"))), Term("plain"),
              And((Term("notable"), Term("prose")))):
        expected = brute_force_skew(docs, q, 2023)
        skews = [category_skew(scan_index(docs, lex, q), q, 2023) for lex in (lexicon, cased)]
        if query_vocabulary(q) <= set(lexicon.terms()):
            skews += [category_skew(index, q, 2023), category_skew(loaded, q, 2023)]
        for skew in skews:
            assert (skew.matched, skew.total, dict(skew.rows)) == expected, q
    # "physics" twice in one document counts twice among all documents
    assert brute_force_skew(docs, Term("intricate"), 2023)[2]["physics"] == (2 / 2, 3 / 5)


@pytest.mark.parametrize("docs, tuples, row_bytes", [
    (600, 1, 1), (600, 256, 1), (600, 257, 2), (65_537, 65_537, 4),
])
def test_category_rows_cost_a_few_bytes_per_document(tmp_path, lexicon, docs, tuples,
                                                     row_bytes):
    """However many distinct category tuples a year has, a document's row
    in its category table takes one, two or four bytes of the file."""
    marks = [(f"d{i:05d}", 2023, i % 7, (f"c{i % tuples}", "x")) for i in range(docs)]
    index = YearTermIndex(lexicon, 1990, 2100, marks)
    path = tmp_path / "rows.idx"
    save_index(index, path)
    payload = zlib.decompress(path.read_bytes()[_HEADER.size:])
    (size,) = struct.unpack_from("<I", payload)
    width = len(lexicon.terms())
    assert len(payload) - 4 - size == width * ((docs + 7) // 8) + docs * row_bytes
    loaded = load_index(path)
    assert list(loaded.doc_marks()) == list(index.doc_marks())
    # vocabulary entry 0 is in the documents whose mask i % 7 is odd
    hits = [m for m in marks if m[2] & 1]
    skew = category_skew(loaded, Term(lexicon.terms()[0]), 2023)
    assert (skew.matched, skew.total) == (len(hits), docs)
    assert skew == category_skew(index, Term(lexicon.terms()[0]), 2023)
    assert skew.rows["x"] == (1.0, 1.0)
    assert skew.rows["c0"] == (sum(m[3][0] == "c0" for m in hits) / len(hits),
                               sum(m[3][0] == "c0" for m in marks) / docs)


# A pool of texts far smaller than the corpus drawn from it, so that many
# documents of a year share one term bitmask.
_VOCAB = builtin_lexicon().terms()
_POOL = st.lists(
    st.lists(st.sampled_from(_VOCAB + FILLER), max_size=8).map(" ".join),
    min_size=1, max_size=5,
)
_MEMBERS = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=5, unique=True)


def _leaf(term: str):
    return Term(term) if " " not in term else Phrase(tuple(term.split()))


@settings(max_examples=60, deadline=None)
@given(pool=_POOL, data=st.data())
def test_repeated_masks_count_like_brute_force(pool, data):
    lexicon = builtin_lexicon()
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.sampled_from((2022, 2023))),
        min_size=1, max_size=40,
    ))
    docs = [Document(id=f"d{i}", year=year, text=pool[k])
            for i, (k, year) in enumerate(picks)]
    a, b = data.draw(st.sampled_from(_VOCAB)), data.draw(st.sampled_from(_VOCAB))
    members = tuple(data.draw(_MEMBERS))
    k = data.draw(st.integers(1, len(members)))
    phrase = data.draw(st.sampled_from([t for t in _VOCAB if " " in t]))
    queries = [
        Term(a), Phrase(tuple(phrase.split())), AnyOf(members),
        AtLeastK(k, members), And((_leaf(a), _leaf(b))), Or((_leaf(a), _leaf(b))),
    ]
    index = build_index(docs, lexicon)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.idx"
        save_index(index, path)
        loaded = load_index(path)
    for idx in (index, loaded):
        for year in idx.years:
            for q in queries:
                assert eval_count(idx, q, year) == brute_force_count(docs, q, year), q
            for term in _VOCAB:
                assert idx.df(term, year) == brute_force_count(docs, Term(term), year)
            assert eval_count(idx, And((Term(a), Term(b))), year) == brute_force_count(
                docs, And((_leaf(a), _leaf(b))), year)


# ---------------------------------------------------------- posting columns


def _many_docs(lexicon, seed: int) -> list[Document]:
    """Several hundred documents in 2023, so that each posting column spans
    many machine words, and a few in 2022."""
    rng = random.Random(seed)
    docs = make_random_corpus(rng, lexicon, 700, (2023,))
    # every strong term together, so atleast(len(strong), strong) is not 0
    strong = " ".join(lexicon.groups()["strong"])
    docs[::37] = [Document(d.id, d.year, f"{d.text} {strong}", d.categories)
                   for d in docs[::37]]
    return docs + [Document(id=f"e{i}", year=2022, text=t)
                   for i, t in enumerate(("an intricate case", "plain", "gpt and llm"))]


def test_wide_columns_count_like_brute_force(lexicon):
    docs = _many_docs(lexicon, 16)
    index = build_index(docs, lexicon)
    strong = lexicon.groups()["strong"]
    medium = lexicon.groups()["medium"]
    queries = [
        Term("intricate"), Phrase(("large", "language", "model")),
        AnyOf(medium), AtLeastK(1, strong), AtLeastK(2, strong),
        AtLeastK(len(strong), strong),
        And((Term("notable"), AnyOf(strong))), Or((Term("gpt"), AtLeastK(2, medium))),
        And((Or((Term("blue"), Term("red"))), AtLeastK(2, strong + medium))),
    ]
    rng = random.Random(17)
    queries += [make_random_query(rng, lexicon) for _ in range(40)]
    for year in index.years:
        for q in queries:
            assert eval_count(index, q, year) == brute_force_count(docs, q, year), q
    assert brute_force_count(docs, AtLeastK(len(strong), strong), 2023) > 0
    for term in lexicon.terms():
        assert index.df(term, 2023) == brute_force_count(docs, Term(term), 2023)
        assert eval_count(index, And((Term(term), Term("notable"))), 2023) == brute_force_count(
            docs, And((Term(term), Term("notable"))), 2023)


def test_counts_for_a_year_not_indexed_are_zero(lexicon):
    index = build_index(_docs((2023, "an intricate and notable proof")), lexicon)
    assert index.df("intricate", 2023) == 1
    assert eval_count(index, And((Term("intricate"), Term("notable"))), 2023) == 1
    assert index.df("intricate", 1999) == 0
    with pytest.raises(UnindexedTermError):
        index.df("zebra", 1999)


def test_concurrent_readers_of_a_fresh_index(tmp_path, lexicon):
    docs = _many_docs(lexicon, 18)
    path = tmp_path / "shared.idx"
    save_index(build_index(docs, lexicon), path)
    rng = random.Random(19)
    queries = [make_random_query(rng, lexicon) for _ in range(30)]

    def answers(index) -> list:
        return [(eval_count(index, q, year), index.df("notable", year),
                 eval_count(index, And((Term("gpt"), Term("llm"))), year))
                for q in queries for year in index.years]

    expected = answers(load_index(path))
    shared = load_index(path)  # one set of columns that every reader shares
    start = threading.Barrier(8)
    results: list = [None] * 8

    def reader(slot: int) -> None:
        start.wait()
        results[slot] = answers(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


# ------------------------------------------------------- a query's kept plan


@pytest.mark.parametrize("seed", range(6))
def test_one_query_evaluates_alike_on_indexes_of_other_term_orders(lexicon, seed):
    """A query compiled against one index's term table and kept is never
    used against another's: one query object, evaluated by turns on a scan
    (its own terms, sorted) and on the lexicon's index, years reversed,
    counts and skews as the oracle does."""
    rng = random.Random(seed)
    docs = make_random_corpus(rng, lexicon, 60, (2021, 2022, 2023))
    index = build_index(docs, lexicon)
    for _ in range(5):
        q = make_random_query(rng, lexicon)
        scan = scan_index(docs, lexicon, q)
        assert any(scan.term_bit(t) != index.term_bit(t) for t in query_vocabulary(q))
        for year in reversed(index.years):
            for source in (scan, index, scan):
                assert eval_count(source, q, year) == brute_force_count(docs, q, year), q
                skew = category_skew(source, q, year)
                assert (skew.matched, skew.total, dict(skew.rows)) == \
                    brute_force_skew(docs, q, year), q


def test_a_query_naming_a_term_the_index_lacks_fails_each_time(lexicon):
    docs = _docs((2023, "an intricate zebra"), (2023, "a zebra"))
    index = build_index(docs, lexicon)
    q = Or((Term("intricate"), And((Term("notable"), Term("zebra")))))
    for _ in range(2):
        with pytest.raises(UnindexedTermError, match="'zebra'"):
            eval_count(index, q, 2023)
        with pytest.raises(UnindexedTermError, match="'zebra'"):
            category_skew(index, q, 2023)
    # The same query object still evaluates where the term is indexed.
    assert eval_count(scan_index(docs, lexicon, q), q, 2023) == 1


def test_an_unknown_year_is_reported_before_an_unindexed_term(lexicon):
    index = build_index(_docs((2023, "an intricate plan")), lexicon)
    known = Term("intricate")
    assert eval_count(index, known, 2023) == 1  # compiled and kept
    for q in (known, Term("zebra")):
        for evaluate in (eval_count, category_skew):
            with pytest.raises(UnknownYearError, match="no documents in year 2030"):
                evaluate(index, q, 2030)
