from __future__ import annotations

import itertools
import json
import random
import re
import sys
import tempfile
import threading
import tracemalloc
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

import index_file
from index_file import HEADER, framed, front_coded, id_stream, packed, streams
from conftest import (
    FILLER,
    SAMPLE_INDEX,
    brute_force_count,
    brute_force_skew,
    make_random_corpus,
    make_random_query,
)


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
    builder.add(Document(id="a", year=2023, text="y"))
    with pytest.raises(IndexBuildError, match="duplicate"):
        builder.finish()


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


def test_a_builder_holds_under_250_bytes_a_document(lexicon):
    """Once added, a document costs the builder its id and a few list
    slots, not a tuple of its own and its category strings."""
    n = 20_000

    def corpus():
        # Fresh id and category strings for every document, as iter_corpus
        # makes them; a marker in 1 document of 20.
        for i in range(n):
            text = "an intricate plan" if i % 20 == 0 else "a plain plan"
            cats = tuple(f"cs.{name}" for name in ("CL", "LG")[:1 + i % 2])
            yield Document(f"doc-{i:06d}", 2019 + i % 5, text, cats)

    builder = IndexBuilder(lexicon)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        builder.add_all(corpus())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / n < 250
    assert builder.finish().doc_count == n


def test_a_builder_holds_each_id_once(lexicon):
    """On the corpus of the test above, a document costs the builder under
    130 bytes: its id and list slots, with no set of ids beside them (92
    bytes measured on Python 3.11.7; about 190 with a set)."""
    n = 20_000
    docs = (Document(f"doc-{i:06d}", 2019 + i % 5,
                     "an intricate plan" if i % 20 == 0 else "a plain plan",
                     tuple(f"cs.{name}" for name in ("CL", "LG")[:1 + i % 2])) for i in range(n))
    builder = IndexBuilder(lexicon)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        builder.add_all(docs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / n < 130
    assert builder.finish().doc_count == n


def test_a_build_holds_its_ids_as_the_file_does(tmp_path, lexicon):
    """A finished build keeps its ids as the file's deflated id stream, so
    once its builder is dropped it holds 1.3 bytes a document of 50,000,
    and save_index codes no ids: it peaks at 13 bytes a document (Python
    3.11.7), against 68 and 44 when a build held its ids as strings."""
    n = 50_000
    docs = (Document(f"doc-{i:06d}", 2019 + i % 5,
                     "an intricate plan" if i % 20 == 0 else "a plain plan",
                     (f"cs.{('CL', 'LG', 'AI')[i % 3]}",)) for i in range(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        builder = IndexBuilder(lexicon)
        builder.add_all(docs)
        index = builder.finish()
        del builder
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_index(index, tmp_path / "big.idx")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (held - before) / n < 8
    assert peak / n < 30
    assert load_index(tmp_path / "big.idx").doc_count == n


def test_equal_ids_and_category_orders_leave_no_trace(tmp_path, lexicon):
    """A scan's documents sharing an id count and skew as the oracle's,
    whatever their order, and a scan keeps no ids; a merge of builders that
    first saw a year's categories in opposite orders saves the bytes of one
    sequential build."""
    shared = [Document("a", 2023, "an intricate plan", ("physics",)),
              Document("a", 2023, "an intricate plan", ("biology",)),
              Document("a", 2023, "a plain plan", ("physics",)),
              Document("b", 2023, "a notable plan", ("biology", "physics")),
              Document("c", 2022, "an intricate, notable plan")]
    q = Or((Term("intricate"), Term("notable")))
    for docs in itertools.permutations(shared):
        scan = scan_index(docs, lexicon, q)
        for year in (2022, 2023):
            skew = category_skew(scan, q, year)
            assert (skew.matched, skew.total, dict(skew.rows)) == brute_force_skew(docs, q, year)
    with pytest.raises(IndexBuildError, match="^a corpus scan keeps no document ids$"):
        list(scan.doc_marks())

    docs = [Document(f"d{i:02d}", 2022 + i % 2, "an intricate plan" if i % 3 else "a plain plan",
                     (("x",), ("y",), ("x", "y"))[i % 3]) for i in range(24)]
    sequential = tmp_path / "sequential.idx"
    save_index(build_index(docs, lexicon), sequential)
    # The two parts meet each year's three category tuples in opposite orders.
    first, second = docs[:12], docs[12:][::-1]
    for left, right in ((first, second), (second, first)):
        builders = [IndexBuilder(lexicon), IndexBuilder(lexicon)]
        for builder, part in zip(builders, (left, right)):
            builder.add_all(part)
        builders[0].merge(builders[1])
        save_index(builders[0].finish(), tmp_path / "merged.idx")
        assert (tmp_path / "merged.idx").read_bytes() == sequential.read_bytes()


def test_merge_rejects_overlapping_ids(lexicon):
    a = IndexBuilder(lexicon)
    a.add(Document(id="x", year=2023, text="one"))
    b = IndexBuilder(lexicon)
    b.add(Document(id="x", year=2023, text="two"))
    a.merge(b)
    with pytest.raises(IndexBuildError, match="x"):
        a.finish()


@pytest.mark.parametrize("left, right", [
    ([("q", 2023), ("m", 2023), ("q", 2023), ("m", 2023)], []),
    ([("q", 2022), ("m", 2022), ("q", 2023), ("m", 2023)], []),
    ([("q", 2022), ("m", 2023), ("a", 2023)], [("z", 2021), ("q", 2023), ("m", 2022)]),
], ids=["within-a-year", "across-years", "across-partitions"])
def test_a_repeated_id_is_reported_at_finish(lexicon, left, right):
    # add and merge take a repeat; finish names the smallest repeated id,
    # whichever builder holds which part.
    for first, second in ((left, right), (right, left)):
        builders = [IndexBuilder(lexicon), IndexBuilder(lexicon)]
        for builder, part in zip(builders, (first, second)):
            builder.add_all(Document(i, year, "an intricate plan") for i, year in part)
        builders[0].merge(builders[1])
        with pytest.raises(IndexBuildError, match="^duplicate document id 'm'$"):
            builders[0].finish()


def test_the_marks_constructor_refuses_a_repeated_id(lexicon):
    # Its index could be saved, and the loader refuses a file that repeats an id.
    with pytest.raises(IndexBuildError, match="^duplicate document id 'a'$"):
        YearTermIndex(lexicon, 2000, 2100, [("a", 2023, 0, ()), ("a", 2023, 1, ())])
    with pytest.raises(IndexBuildError, match="^duplicate document id 'a'$"):
        YearTermIndex(lexicon, 2000, 2100, [("a", 2022, 0, ()), ("b", 2023, 0, ()),
                                            ("a", 2023, 0, ())])


def test_a_builder_merged_into_itself_reports_its_ids(lexicon):
    builder = IndexBuilder(lexicon)
    builder.add_all([Document("b", 2022, "a plain plan"), Document("a", 2023, "a plain plan")])
    builder.merge(builder)
    with pytest.raises(IndexBuildError, match="^duplicate document id 'a'$"):
        builder.finish()
    empty = IndexBuilder(lexicon)
    empty.merge(empty)
    assert empty.finish().doc_count == 0


def test_a_merge_with_a_year_outside_the_range_adds_nothing(tmp_path, lexicon):
    """A merge refuses a document outside the builder's year range as add
    does, before it adds any document, so the builder finishes as if the
    merge had not been tried."""
    kept = [Document("b", 2022, "a plain plan"), Document("a", 2023, "an intricate plan", ("x",))]
    builder = IndexBuilder(lexicon)
    builder.add_all(kept)
    wide = IndexBuilder(lexicon, min_year=1900)
    wide.add_all([Document("new", 2023, "a notable plan"), Document("old", 1950, "a plan")])
    message = "^document 'old': year 1950 outside allowed range 2000-2100$"
    with pytest.raises(IndexBuildError, match=message):
        IndexBuilder(lexicon).add(Document("old", 1950, "a plan"))
    with pytest.raises(IndexBuildError, match=message):
        builder.merge(wide)
    save_index(builder.finish(), tmp_path / "tried.idx")
    save_index(build_index(kept, lexicon), tmp_path / "kept.idx")
    assert (tmp_path / "tried.idx").read_bytes() == (tmp_path / "kept.idx").read_bytes()


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
        # the phrase only after its first word has come alone, and cut short
        (2023, "a large dog, a large language, a large language model"),
        (2023, "a large dog and a large language"),
    )
    index = build_index(docs, lexicon)
    q = Phrase(("large", "language", "model"))
    assert eval_count(index, q, 2023) == 2


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
    # Plain tuples, as a build and a scan take them.
    assert eval_count_scan(map(tuple, docs), lexicon, Term("zebra"), 2023) == 1


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
    # Nor one whose terms are its lexicon's, in their order: it keeps no ids.
    both = Lexicon("ab", (TermEntry("alpha", "adjective"), TermEntry("beta", "adjective")))
    twice = [Document("a", 2023, "alpha"), Document("a", 2023, "beta")]
    for scan in (scan_index(_docs((2023, "an intricate zebra")), lexicon, Term("zebra")),
                 scan_index(twice, both, Or((Term("alpha"), Term("beta"))))):
        path = tmp_path / "scan.idx"
        with pytest.raises(IndexBuildError) as info:
            save_index(scan, path)
        assert str(info.value) == "an index over a query's terms (a corpus scan) cannot be saved"
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


# Three documents of 2023, so one byte per column, with the category table
# [["a"], ["b"]]. A file holds them by id, and their rows, one byte each,
# are 0, 1, 0.
_THREE_DOCS = [
    Document(id="d0", year=2023, text="an intricate proof", categories=("a",)),
    Document(id="d1", year=2023, text="plain prose", categories=("b",)),
    Document(id="d2", year=2023, text="a notable case", categories=("a",)),
]


def _parts(tmp_path, lexicon, docs=_THREE_DOCS) -> tuple[dict, bytearray, list]:
    """The header, column bytes (each year's term columns, then its category
    rows) and ids of the index of *docs*, saved as ``good.idx`` in
    *tmp_path*."""
    path = tmp_path / "good.idx"
    save_index(build_index(docs, lexicon), path)
    return index_file.parts(path.read_bytes())


def _payload(edit):
    """An edit of a good file's payload: *edit* takes its header, column
    bytes and ids (see :func:`index_file.parts`) and gives the payload to
    frame."""
    return lambda data: framed(edit(*index_file.parts(data)))


def _header_bytes(text: bytes):
    """An edit putting *text* where the JSON header was."""
    return _payload(lambda header, columns, ids: packed(text, columns, ids))


def _header(**fields):
    """An edit setting *fields* of the header."""
    return _payload(lambda header, columns, ids: packed(dict(header, **fields), columns, ids))


def _year_field(**fields):
    """An edit setting *fields* of the header's first year."""
    def edit(header: dict, columns: bytearray, ids: list) -> bytes:
        header["years"][0].update(fields)
        return packed(header, columns, ids)
    return _payload(edit)


def _unknown_role(position: int):
    """An edit giving the header lexicon's entry at *position* a role no
    entry may have, so that it has as many terms."""
    def edit(header: dict, columns: bytearray, ids: list) -> bytes:
        header["lexicon"]["entries"][position]["role"] = "nonsense"
        return packed(header, columns, ids)
    return _payload(edit)


def _column_byte(position: int, value: int):
    """An edit setting one byte of the column bytes: the term columns' bytes
    come first, the documents' category rows last."""
    def edit(header: dict, columns: bytearray, ids: list) -> bytes:
        columns[position] = value
        return packed(header, columns, ids)
    return _payload(edit)


def _padded_first_of_two_years(header: dict, columns: bytearray, ids: list) -> bytes:
    """A two-year file: 2022 a copy of 2023, whose first column has a bit
    set past its 3 documents, then 2023 as saved."""
    year = header["years"][0]
    header = dict(header, years=[dict(year, year=2022), year])
    padded = bytearray(columns)
    padded[0] |= 0b1000
    return packed(header, padded + columns, ids)


def _two_byte_rows(last: int):
    """An edit giving the year 257 documents, d000 to d256, each with a
    category of its own: a table of more than 256 rows, so two bytes a
    document's row. The rows are 0 to 255, then *last*; 256 makes a good
    file."""
    def edit(header: dict, columns: bytearray, ids: list) -> bytes:
        width = len(header["lexicon"]["entries"])
        year = dict(header["years"][0], docs=257, categories=[[f"c{i:03d}"] for i in range(257)])
        rows = b"".join(row.to_bytes(2, "little") for row in [*range(256), last])
        return packed(dict(header, years=[year]), bytes(width * 33) + rows,
                      [[f"d{i:03d}" for i in range(257)]])
    return _payload(edit)


def _two_years(first, second, extra: bytes = b""):
    """An edit making a two-year file: the saved year as *first*, its ids
    renamed, then again as *second*, then *extra* bytes."""
    def edit(header: dict, columns: bytearray, ids: list) -> bytes:
        year = header["years"][0]
        header = dict(header, years=[dict(year, year=first), dict(year, year=second)])
        renamed = ["c" + doc_id for doc_id in ids[0]]
        return packed(header, columns + columns + extra, [renamed, *ids])
    return _payload(edit)


def _flip(position: int, bits: int = 0x10):
    """An edit flipping *bits* of the file's byte at *position*."""
    def edit(data: bytes) -> bytes:
        flipped = bytearray(data)
        flipped[position] ^= bits
        return bytes(flipped)
    return edit


def _length_past_payload(data: bytes) -> bytes:
    """The file *data* with its payload length one past the payload, the
    checksum kept."""
    magic, version, length, check = HEADER.unpack_from(data)
    return HEADER.pack(magic, version, length + 1, check) + data[HEADER.size:]


def _version(version: int):
    """An edit giving the file the format *version*, with its checksum."""
    return lambda data: framed(index_file.unframed(data)[1], version)


_CHECKSUM = "checksum mismatch (truncated or corrupt)"

# Each load check of the README's "Index file" section, in its order: the
# name of the rule, an edit of the file of _THREE_DOCS that breaks it, and
# the error a load raises, its message after the file's path.
_REFUSALS = [
    ("header-cut-short", lambda data: data[:HEADER.size - 1], IndexFileError,
     "not an index file"),
    ("header-cut-after-version", lambda data: data[:6], IndexFileError, "not an index file"),
    ("magic-wrong", lambda data: b"LXDY" + data[4:], IndexFileError, "not an index file"),
    ("file-foreign", lambda data: b"not an index file at all", IndexFileError,
     "not an index file"),
    # An index is derived data: a file of an older version is rebuilt from
    # its corpus, not read.
    *[(f"other-version-{version}", _version(version), IndexVersionError,
       f"unsupported index version {version} (supported: 6); rebuild the file with "
       "'lexdrift index'") for version in (0, 1, 2, 3, 4, 5, 7, 99, 65535)],
    ("first-payload-byte-flipped", _flip(HEADER.size), IndexChecksumError, _CHECKSUM),
    ("last-payload-byte-flipped", _flip(-1), IndexChecksumError, _CHECKSUM),
    ("last-payload-byte-inverted", _flip(-1, 0xFF), IndexChecksumError, _CHECKSUM),
    ("checksum-byte-flipped", _flip(HEADER.size - 1), IndexChecksumError, _CHECKSUM),
    ("payload-truncated", lambda data: data[:-7], IndexChecksumError, _CHECKSUM),
    ("payload-last-byte-missing", lambda data: data[:-1], IndexChecksumError, _CHECKSUM),
    ("payload-missing", lambda data: data[:HEADER.size], IndexChecksumError, _CHECKSUM),
    ("byte-appended", lambda data: data + b"\0", IndexChecksumError, _CHECKSUM),
    ("length-past-payload", _length_past_payload, IndexChecksumError, _CHECKSUM),
    ("payload-not-deflated", lambda data: framed(b"plain bytes, not deflated"), IndexFileError,
     "malformed payload (Error -3 while decompressing data: incorrect header check)"),
    ("payload-stream-unended",
     _payload(lambda header, columns, ids: packed(header, columns, b"")[:-4]), IndexFileError,
     "malformed payload (a deflated stream does not end)"),
    ("id-stream-missing", _payload(lambda header, columns, ids: packed(header, columns, b"")),
     IndexFileError, "malformed payload (no id stream after the payload)"),
    ("header-length-missing", lambda data: framed(zlib.compress(b"\0\0") + id_stream([])),
     IndexFileError, "malformed payload (no header length)"),
    ("header-length-past-stream",
     _payload(lambda header, columns, ids: packed(b"{}", b"", ids, extra_length=1)),
     IndexFileError, "malformed payload (header length 3 runs past the payload)"),
    ("header-not-utf8", _header_bytes(b"\xff\xfe"), IndexFileError,
     "malformed payload ('utf-8' codec can't decode byte 0xff in position 0: invalid start "
     "byte)"),
    ("header-not-json", _header_bytes(b"{not json"), IndexFileError,
     "malformed payload (Expecting property name enclosed in double quotes: line 1 column 2 "
     "(char 1))"),
    ("header-nested-too-deeply", _header_bytes(b"[" * 200_000), IndexFileError,
     "malformed payload (JSON nested too deeply)"),
    ("lexicon-nested-too-deeply",
     _header_bytes(b'{"format": "lexdrift.index", "lexicon": ' + b"[" * 200_000), IndexFileError,
     "malformed payload (JSON nested too deeply)"),
    ("header-integer-too-long", _header_bytes(b"9" * 5000), IndexFileError,
     "malformed payload (integer of more than 4300 digits)"),
    ("field-integer-too-long",
     _payload(lambda header, columns, ids: packed(
         json.dumps(header)[:-1].encode() + b', "x": ' + b"9" * 5000 + b"}", columns, ids)),
     IndexFileError, "malformed payload (integer of more than 4300 digits)"),
    ("count-integer-too-long",
     _payload(lambda header, columns, ids: packed(
         json.dumps(header).replace('"docs": 3', '"docs": ' + "9" * 5000).encode(), columns,
         ids)),
     IndexFileError, "malformed payload (integer of more than 4300 digits)"),
    ("header-not-an-object", _header_bytes(b"[1, 2]"), IndexFileError,
     "malformed payload (not a lexdrift index payload)"),
    ("format-foreign", _header(format="lexdrift.counts"), IndexFileError,
     "malformed payload (not a lexdrift index payload)"),
    ("lexicon-missing",
     _payload(lambda header, columns, ids: packed({k: v for k, v in header.items()
                                                   if k != "lexicon"}, columns, ids)),
     IndexFileError, "malformed payload (no 'lexicon' field)"),
    ("lexicon-first-entry-refused", _unknown_role(0), IndexFileError,
     "malformed payload (unknown role 'nonsense' for term 'commendable')"),
    ("lexicon-last-entry-refused", _unknown_role(-1), IndexFileError,
     "malformed payload (unknown role 'nonsense' for term 'artificial intelligence')"),
    ("years-not-a-list", _header(years={}), IndexFileError,
     "malformed payload ('years' is not a list)"),
    ("years-entry-not-an-object", _header(years=[[2020]]), IndexFileError,
     "malformed payload ('years' entry 0 is not an object)"),
    ("years-entry-a-string", _header(years=["2020"]), IndexFileError,
     "malformed payload ('years' entry 0 is not an object)"),
    ("years-entry-an-integer", _header(years=[7]), IndexFileError,
     "malformed payload ('years' entry 0 is not an object)"),
    ("count-not-int", _year_field(docs="3"), IndexFileError,
     "malformed payload (the document count of 2023 is not an integer)"),
    ("count-bool", _year_field(docs=True), IndexFileError,
     "malformed payload (the document count of 2023 is not an integer)"),
    ("count-before-categories", _year_field(docs="2", categories=[[7], ["b"]]), IndexFileError,
     "malformed payload (the document count of 2023 is not an integer)"),
    ("category-table-not-lists", _year_field(categories=None), IndexFileError,
     "malformed payload (the category table of 2023 is not a list of lists)"),
    ("category-row-not-a-list", _year_field(categories=["a", "b"]), IndexFileError,
     "malformed payload (the category table of 2023 is not a list of lists)"),
    ("category-not-str", _year_field(categories=[[7], ["b"]]), IndexFileError,
     "malformed payload (a category in 2023 is not a string)"),
    ("category-high-surrogate", _year_field(categories=[["\ud800x"], ["b"]]), IndexFileError,
     "malformed payload (a category in 2023 holds a lone surrogate U+D800)"),
    ("category-low-surrogate", _year_field(categories=[["a"], ["b\udcff"]]), IndexFileError,
     "malformed payload (a category in 2023 holds a lone surrogate U+DCFF)"),
    ("category-table-unsorted", _year_field(categories=[["b"], ["a"]]), IndexFileError,
     "malformed payload (the category-table rows of 2023 are not strictly ascending)"),
    ("category-table-repeated", _year_field(categories=[["a"], ["a"]]), IndexFileError,
     "malformed payload (the category-table rows of 2023 are not strictly ascending)"),
    ("count-zero", _year_field(docs=0), IndexFileError,
     "malformed payload (year 2023 has no documents)"),
    ("count-negative", _year_field(docs=-1), IndexFileError,
     "malformed payload (year 2023 has no documents)"),
    ("columns-cut-short", _payload(lambda header, columns, ids: packed(header, columns[:-1], ids)),
     IndexFileError, "malformed payload (the columns of 2023 are cut short)"),
    ("count-past-columns", _year_field(docs=9), IndexFileError,
     "malformed payload (the columns of 2023 are cut short)"),
    ("column-wider-than-year", _column_byte(0, 0b1000), IndexFileError,
     "malformed payload (a column of 2023 is wider than its 3 documents)"),
    ("column-of-first-year-wider", _payload(_padded_first_of_two_years), IndexFileError,
     "malformed payload (a column of 2022 is wider than its 3 documents)"),
    ("category-row-past-table", _column_byte(-1, 2), IndexFileError,
     "malformed payload (a document of 2023 has no row in its category table)"),
    ("two-byte-category-row-past-table", _two_byte_rows(257), IndexFileError,
     "malformed payload (a document of 2023 has no row in its category table)"),
    ("category-row-without-documents", _column_byte(-2, 0), IndexFileError,
     "malformed payload (a category-table row of 2023 has no documents)"),
    ("two-byte-category-row-without-documents", _two_byte_rows(0), IndexFileError,
     "malformed payload (a category-table row of 2023 has no documents)"),
    ("trailing-bytes", _payload(lambda header, columns, ids: packed(header, columns + b"\0", ids)),
     IndexFileError, "malformed payload (1 bytes after the last column)"),
    ("year-bound-not-int", _header(min_year="2000"), IndexFileError,
     "malformed payload (year range '2000'-2100: a year is not an integer)"),
    ("year-not-int", _two_years(2022, "2023"), IndexFileError,
     "malformed payload (document 'd0': year '2023' outside allowed range 2000-2100)"),
    ("only-year-not-int", _year_field(year="2023"), IndexFileError,
     "malformed payload (document 'd0': year '2023' outside allowed range 2000-2100)"),
    ("year-past-range", _two_years(2022, 2101), IndexFileError,
     "malformed payload (document 'd0': year 2101 outside allowed range 2000-2100)"),
    ("years-unsorted", _two_years(2023, 2022), IndexFileError,
     "malformed payload (the years are not strictly ascending: 2022 after 2023)"),
    ("years-repeated", _two_years(2023, 2023), IndexFileError,
     "malformed payload (the years are not strictly ascending: 2023 after 2023)"),
    ("trailing-bytes-before-years", _two_years(2023, 2022, b"\0"), IndexFileError,
     "malformed payload (1 bytes after the last column)"),
    ("trailing-bytes-before-year-not-int", _two_years("2023", 2022, b"\0"), IndexFileError,
     "malformed payload (1 bytes after the last column)"),
]


@pytest.mark.parametrize("edit, error, problem",
                         [pytest.param(*row, id=name) for name, *row in _REFUSALS])
def test_a_broken_file_is_one_exact_error(tmp_path, lexicon, capsys, edit, error, problem):
    good, bad = tmp_path / "good.idx", tmp_path / "bad.idx"
    save_index(build_index(_THREE_DOCS, lexicon), good)
    bad.write_bytes(edit(good.read_bytes()))
    with pytest.raises(IndexFileError) as caught:
        load_index(bad)
    assert (type(caught.value), str(caught.value)) == (error, f"{bad}: {problem}")
    assert main(["query", "intricate", "--index", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {problem}\n")


def _assert_rejected(path, capsys, problem: str = "") -> None:
    """Loading *path* is an IndexFileError naming it and *problem*, and a
    query on it exits 1 with one line."""
    with pytest.raises(IndexFileError, match=path.name) as caught:
        load_index(path)
    assert problem in str(caught.value)
    assert main(["query", "intricate", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parts_reassemble_into_the_same_index(tmp_path, lexicon):
    # The parts of a file, its header, column bytes and ids, pack back into it.
    header, columns, ids = _parts(tmp_path, lexicon)
    assert header["years"] == [{"year": 2023, "docs": 3, "categories": [["a"], ["b"]]}]
    assert ids == [["d0", "d1", "d2"]]
    width = len(lexicon.terms())
    assert len(columns) == width + 3
    assert columns[width:] == bytes([0, 1, 0])
    path = tmp_path / "again.idx"
    path.write_bytes(framed(packed(header, columns, ids)))
    assert streams(path.read_bytes()) == streams((tmp_path / "good.idx").read_bytes())
    assert list(load_index(path).doc_marks()) \
        == list(load_index(tmp_path / "good.idx").doc_marks()) \
        == list(build_index(_THREE_DOCS, lexicon).doc_marks())
    # A re-save keeps the file's id stream as it was deflated, by one zlib.compress.
    resaved = tmp_path / "resaved.idx"
    save_index(load_index(path), resaved)
    assert resaved.read_bytes().endswith(id_stream([front_coded(year_ids) for year_ids in ids]))
    assert streams(resaved.read_bytes()) == streams((tmp_path / "good.idx").read_bytes())
    assert list(load_index(resaved).doc_marks()) == list(load_index(path).doc_marks())


def test_no_index_holds_a_year_outside_its_range(tmp_path, lexicon, capsys):
    # IndexBuilder.add refuses such a document; the marks constructor and a
    # load refuse it alike, naming the year's smallest id.
    problem = "document 'd0': year 1900 outside allowed range 2000-2100"
    with pytest.raises(IndexBuildError, match=f"^{re.escape(problem)}$"):
        YearTermIndex(lexicon, 2000, 2100, [("d1", 1900, 0, ()), ("d0", 1900, 0, ())])
    # A load decodes the ids to name it.
    header, columns, ids = _parts(tmp_path, lexicon)
    header["years"][0]["year"] = 1900
    path = tmp_path / "bad.idx"
    path.write_bytes(framed(packed(header, columns, ids)))
    _assert_rejected(path, capsys, f"malformed payload ({problem})")
    # The smallest id of a year need not be given first.
    with pytest.raises(IndexBuildError, match=f"^{re.escape(problem)}$"):
        YearTermIndex(lexicon, 2000, 2100, [("d1", 1900, 0, ("a",)), ("d0", 1900, 0, ("b",))])


# The id stream of _THREE_DOCS: d0, d1 and d2 front-coded.
_THREE_IDS = [[0, 1, 1], ["d0", "1", "2"]]
_WITHIN = "a shared length in 2023 is negative or past the id before it"


@pytest.mark.parametrize("docs, stream, problem", [(_THREE_DOCS, *row) for row in [
    (id_stream([[[0, 1, 1], [7, "1", "2"]]]),
     "the rest of a document id in 2023 is not a string"),
    (id_stream([[[0, 2, 1], ["d0", "", "1"]]]), "the ids of 2023 are not strictly ascending"),
    (id_stream([[[0, 1, 1], ["d0", "2", "1"]]]), "the ids of 2023 are not strictly ascending"),
    (id_stream([[[0, 1], ["d0", "1"]]]),
     "the id lists of 2023 are not two lists of its 3 documents"),
    (id_stream([[[0, 1, 1, 1], ["d0", "1", "2"]]]),
     "the id lists of 2023 are not two lists of its 3 documents"),
    (id_stream([["0,1,1", ["d0", "1", "2"]]]),
     "the id lists of 2023 are not two lists of its 3 documents"),
    # A string of the right length: "d12" would decode to d, d1 and d2.
    (id_stream([["011", ["d0", "1", "2"]]]),
     "the id lists of 2023 are not two lists of its 3 documents"),
    (id_stream([[[0, 1, 1], "d12"]]), "the id lists of 2023 are not two lists of its 3 documents"),
    (id_stream([[0, 1, 1, "d0", "1", "2"]]),
     "the ids are not a pair of lists for each of the 1 years"),
    (id_stream([[*_THREE_IDS, []]]), "the ids are not a pair of lists for each of the 1 years"),
    (id_stream(["d0d1d2"]), "the ids are not a pair of lists for each of the 1 years"),
    (id_stream([_THREE_IDS, [[], []]]), "the ids are not a pair of lists for each of the 1 years"),
    (id_stream({"2023": _THREE_IDS}), "the ids are not a pair of lists for each of the 1 years"),
    (id_stream([[[0, 1.0, 1], ["d0", "1", "2"]]]), "a shared length in 2023 is not an integer"),
    (id_stream([[[0, True, 1], ["d0", "1", "2"]]]), "a shared length in 2023 is not an integer"),
    (id_stream([[[0, -1, 1], ["d0", "1", "2"]]]), _WITHIN),
    (id_stream([[[0, 3, 1], ["d0", "1", "2"]]]), _WITHIN),
    (id_stream([[[1, 1, 1], ["0", "1", "2"]]]), _WITHIN),
    (id_stream([[[0, 0, 1], ["d0", "d1", "2"]]]), "a shared length in 2023 is not the longest"),
    (id_stream([[[0, 1, 0], ["d0", "1", "d2"]]]), "a shared length in 2023 is not the longest"),
    (zlib.compress(b'[[[0,1,1],["d0"'), "Expecting ',' delimiter: line 1 column 16 (char 15)"),
    (zlib.compress(b"\xff"), "'utf-8' codec can't decode byte 0xff in position 0: invalid "
                             "start byte"),
    (zlib.compress(b"[" * 200_000), "JSON nested too deeply"),
    (zlib.compress(b"[[[" + b"9" * 5000 + b"]]]"), "integer of more than 4300 digits"),
    (b"plain bytes", "Error -3 while decompressing data: incorrect header check"),
    (id_stream([_THREE_IDS])[:-2], "a deflated stream does not end"),
    (id_stream([_THREE_IDS]) + b"\0", "1 bytes after the id stream"),
]] + [([], id_stream({}), "the ids are not a pair of lists for each of the 0 years")],
    ids=["id-not-str", "ids-repeated", "ids-unsorted", "ids-too-few", "ids-too-many",
        "shared-not-a-list", "shared-a-string-of-n-digits", "rests-a-string-of-n-characters",
        "ids-not-list", "pair-of-three-lists", "ids-not-a-pair",
        "ids-of-too-many-years", "ids-not-a-list", "shared-not-int", "shared-bool",
        "shared-negative", "shared-past-id-before", "first-shared-not-0", "shared-shorter",
        "shared-shorter-after-a-carry", "not-json", "not-utf8", "nested-too-deeply",
        "integer-too-long", "not-deflated", "stream-unended", "trailing-bytes",
        "ids-of-no-years-not-a-list"])
def test_a_malformed_id_stream_is_refused_when_the_ids_are_first_used(
        tmp_path, lexicon, capsys, docs, stream, problem):
    """A file's ids are decoded by doc_marks() and save_index, never by a
    load or a query: a file whose id stream is malformed loads, answers
    every query as the well-formed file does, and names the problem once
    its ids are used. A file of no years answers no query."""
    header, columns, _ = _parts(tmp_path, lexicon, docs)
    good, bad = tmp_path / "good.idx", tmp_path / "bad.idx"
    assert json.loads(streams(good.read_bytes())[1]) == ([_THREE_IDS] if docs else [])
    bad.write_bytes(framed(packed(header, columns, stream)))
    index, fine = load_index(bad), load_index(good)
    assert [index.total(y) for y in index.years] == [fine.total(y) for y in fine.years] \
        == ([3] if docs else [])
    q = parse_query("any(strong) OR intricate OR notable", lexicon)
    assert [(eval_count(index, q, y), category_skew(index, q, y)) for y in index.years] \
        == [(eval_count(fine, q, y), category_skew(fine, q, y)) for y in fine.years]
    for argv in (["query", "intricate"], ["skew", "intricate", "--year", "2023"]):
        assert main([*argv, "--index", str(good)]) == (0 if docs else 1)
        expected = capsys.readouterr()
        assert main([*argv, "--index", str(bad)]) == (0 if docs else 1)
        assert capsys.readouterr() == expected
    for use in (lambda: list(index.doc_marks()), lambda: save_index(index, tmp_path / "re.idx")):
        with pytest.raises(IndexFileError) as caught:
            use()
        assert str(caught.value) == f"{bad}: malformed payload ({problem})"
    assert not (tmp_path / "re.idx").exists()


def test_an_id_in_two_years_is_refused_wherever_ids_are_decoded(tmp_path, lexicon):
    # A build and the marks constructor refuse it too.
    header, columns, _ = _parts(tmp_path, lexicon)
    year = header["years"][0]
    header = dict(header, years=[dict(year, year=2022), year])
    path = tmp_path / "twice.idx"
    path.write_bytes(framed(packed(header, columns + columns,
                                   [["a", "b", "c"], ["a", "d", "e"]])))
    index = load_index(path)
    assert index.doc_count == 6
    with pytest.raises(IndexFileError) as caught:
        list(index.doc_marks())
    assert str(caught.value) == f"{path}: malformed payload (duplicate document id 'a')"


def test_a_loaded_file_saves_to_the_same_bytes(tmp_path):
    path = tmp_path / "again.idx"
    save_index(load_index(SAMPLE_INDEX), path)
    assert path.read_bytes() == SAMPLE_INDEX.read_bytes()


def _huffman_only(stream: bytes) -> bytes:
    deflate = zlib.compressobj(1, strategy=zlib.Z_HUFFMAN_ONLY)
    return deflate.compress(stream) + deflate.flush()


def test_a_file_loads_however_its_streams_were_deflated(tmp_path, lexicon):
    # How a writer deflates is its own choice: one zlib.compress a stream,
    # with no block boundaries, as every file before Z_FILTERED was written,
    # or Huffman codes alone, loads to the same index.
    sample = load_index(SAMPLE_INDEX)
    q = parse_query("any(strong)", lexicon)
    inflated = streams(SAMPLE_INDEX.read_bytes())
    for name, payload in [("one-shot", packed(*index_file.parts(SAMPLE_INDEX.read_bytes()))),
                          ("huffman", b"".join(map(_huffman_only, inflated)))]:
        path = tmp_path / f"{name}.idx"
        path.write_bytes(framed(payload))
        assert path.read_bytes() != SAMPLE_INDEX.read_bytes()
        assert streams(path.read_bytes()) == inflated
        index = load_index(path)
        assert list(index.doc_marks()) == list(sample.doc_marks())
        assert [eval_count(index, q, y) for y in index.years] \
            == [eval_count(sample, q, y) for y in sample.years]


def test_doc_marks_come_by_id_where_the_larger_id_has_the_smaller_category_row(tmp_path,
                                                                             lexicon):
    docs = [Document("b", 2023, "an intricate proof", ("a",)),
            Document("a", 2023, "an intricate proof", ("b",)),
            Document("c", 2023, "plain prose", ("a",))]
    index = build_index(docs, lexicon)
    path = tmp_path / "rows.idx"
    save_index(index, path)
    # The file holds them by id, front-coded, whatever their rows.
    assert json.loads(streams(path.read_bytes())[1]) == [[[0, 0, 0], ["a", "b", "c"]]]
    assert streams(path.read_bytes())[0][-3:] == bytes([1, 0, 0])
    bit = 1 << lexicon.terms().index("intricate")
    assert list(index.doc_marks()) == list(load_index(path).doc_marks()) \
        == [("a", 2023, bit, ("b",)), ("b", 2023, bit, ("a",)), ("c", 2023, 0, ("a",))]


def test_an_index_over_an_empty_vocabulary_gives_back_its_marks(tmp_path):
    marks = [("a", 2022, 0, ("cs",)), ("b", 2023, 0, ())]
    index = YearTermIndex(Lexicon("empty", ()), 2000, 2100, marks)
    path = tmp_path / "empty.idx"
    save_index(index, path)
    assert list(index.doc_marks()) == list(load_index(path).doc_marks()) == marks


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_byte_rows_load_exactly_when_each_lies_in_and_uses_the_table(lexicon, data):
    size = data.draw(st.integers(1, 256), label="table size")
    # A row is one byte: a table of 256 rows has none past it.
    top = data.draw(st.sampled_from([size - 1, min(size, 255), 255]), label="largest row drawn")
    rows = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=300), label="rows")
    if data.draw(st.booleans(), label="every row listed once more"):
        rows += range(size)
    rows.sort()  # the row checks ignore the order
    n, width = len(rows), len(lexicon.terms())
    header = {"format": "lexdrift.index", "lexicon": lexicon_to_dict(lexicon),
              "min_year": 2023, "max_year": 2023,
              "years": [{"year": 2023, "docs": n,
                         "categories": [[f"c{r:03d}"] for r in range(size)]}]}
    # The rule spelled out one element at a time.
    if max(rows) >= size:
        problem = "a document of 2023 has no row in its category table"
    elif len(set(rows)) != size:
        problem = "a category-table row of 2023 has no documents"
    else:
        problem = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.idx"
        path.write_bytes(framed(packed(header, bytes(width * ((n + 7) // 8)) + bytes(rows),
                                       [[f"d{i:03d}" for i in range(n)]])))
        if problem is None:
            assert [cats for _, _, _, cats in load_index(path).doc_marks()] \
                == [(f"c{r:03d}",) for r in rows]
        else:
            with pytest.raises(IndexFileError, match=problem):
                load_index(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ids_load_exactly_when_ascending_and_coded_with_longest_prefixes(lexicon, data):
    # Short ids of two letters, so that neighbours often share a prefix.
    ids = data.draw(st.lists(st.text("ab", max_size=4), min_size=1, max_size=10, unique=True),
                    label="ids")
    if data.draw(st.booleans(), label="sorted"):
        ids.sort()
    if len(ids) > 1 and data.draw(st.booleans(), label="two neighbours swapped"):
        i = data.draw(st.integers(0, len(ids) - 2), label="first of the two")
        ids[i:i + 2] = ids[i + 1], ids[i]
    shared, rests = front_coded(ids)
    longest = list(shared)
    if any(shared) and data.draw(st.booleans(), label="a shared length cut"):
        i = data.draw(st.sampled_from([i for i, n in enumerate(shared) if n]), label="whose")
        shared[i] = data.draw(st.integers(0, shared[i] - 1), label="to")
        rests[i] = ids[i][shared[i]:]
    n = len(ids)
    header = {"format": "lexdrift.index", "lexicon": lexicon_to_dict(lexicon),
              "min_year": 2023, "max_year": 2023,
              "years": [{"year": 2023, "docs": n, "categories": [[]]}]}
    # No document holds a term, and each has the one row, no categories.
    columns = bytes(len(lexicon.terms()) * ((n + 7) // 8) + n)
    # The rule spelled out id by id: the first id that breaks one is named.
    problem = None
    for i in range(1, n):
        if shared[i] < longest[i]:
            problem = "a shared length in 2023 is not the longest"
            break
        if ids[i] <= ids[i - 1]:
            problem = "the ids of 2023 are not strictly ascending"
            break
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "order.idx"
        path.write_bytes(framed(packed(header, columns, id_stream([[shared, rests]]))))
        index = load_index(path)
        if problem is None:
            assert list(index.doc_marks()) == [(doc_id, 2023, 0, ()) for doc_id in ids]
            save_index(index, Path(tmp) / "again.idx")
            # The header is canonical JSON once saved; the ids code alike.
            assert json.loads(streams((Path(tmp) / "again.idx").read_bytes())[1]) \
                == [[shared, rests]]
        else:
            with pytest.raises(IndexFileError) as caught:
                list(index.doc_marks())
            assert str(caught.value) == f"{path}: malformed payload ({problem})"


# Ids that share long prefixes, and characters JSON escapes or that take
# more than one byte or UTF-16 unit.
_PREFIXES = st.sampled_from(["", "10.1000/j.nlp.2023.", "10.1000/j.nlp.2023.0", "x" * 40])
_AWKWARD_IDS = st.lists(st.builds(str.__add__, _PREFIXES,
                                  st.text(st.sampled_from('ab\n"\\é物\U0001F600'), max_size=3)),
                        min_size=1, max_size=12, unique=True)


@settings(max_examples=100, deadline=None)
@given(ids=_AWKWARD_IDS)
def test_ids_of_long_shared_prefixes_and_awkward_characters_round_trip(lexicon, ids):
    docs = [Document(doc_id, 2022 + k % 2, "an intricate case" if k % 3 else "plain")
            for k, doc_id in enumerate(ids)]
    index = build_index(docs, lexicon)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "ids.idx", Path(tmp) / "again.idx"
        save_index(index, path)
        by_year = [sorted(doc.id for doc in docs if doc.year == year) for year in index.years]
        assert json.loads(streams(path.read_bytes())[1]) == list(map(front_coded, by_year))
        loaded = load_index(path)
        assert list(loaded.doc_marks()) == list(index.doc_marks())
        assert [doc_id for doc_id, *_ in loaded.doc_marks()] == sum(by_year, [])
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_saved_lone_surrogate_category_is_rejected_on_load(tmp_path, lexicon, capsys):
    # A JSON "\\ud800" escape in a category decodes to a lone surrogate,
    # which no output can print. save_index writes no such file, so this
    # one is made by hand.
    header, columns, ids = _parts(tmp_path, lexicon)
    header["years"][0]["categories"] = [["b"], ["\ud800x"]]
    path = tmp_path / "surrogate.idx"
    path.write_bytes(framed(packed(header, columns, ids)))
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
    # The corpus reader rejects such a record; a Document built in code is
    # refused by the build, so save_index is never reached.
    path = tmp_path / "bad.idx"
    with pytest.raises(IndexBuildError, match=f"^{problem}$"):
        save_index(build_index([Document("a", 2023, "an intricate plan", (category,))], lexicon),
                   path)
    assert not path.exists()


def test_save_refuses_a_year_the_loader_refuses(tmp_path, lexicon):
    # A year or a year bound given in code may be no int; the build refuses
    # it, and a builder as it is made.
    path = tmp_path / "bad.idx"
    for build, problem in [
        (lambda: YearTermIndex(lexicon, 2000, 2100, [("a", 2023.0, 0, ())]),
         "document 'a': year 2023.0 is not an integer"),
        (lambda: YearTermIndex(lexicon, 2000, 2100, [("a", True, 0, ())]),
         "document 'a': year True is not an integer"),
        (lambda: YearTermIndex(lexicon, 2000, 2100.0, []),
         "year range 2000-2100.0: a year is not an integer"),
        (lambda: IndexBuilder(lexicon, min_year=2000.0),
         "year range 2000.0-2100: a year is not an integer"),
        (lambda: IndexBuilder(lexicon, min_year="2000"),
         "year range '2000'-2100: a year is not an integer"),
    ]:
        with pytest.raises(IndexBuildError, match=f"^{re.escape(problem)}$"):
            save_index(build(), path)
    assert not path.exists()


def test_an_inverted_year_range_is_refused_before_any_document(tmp_path, lexicon, capsys):
    # A range whose first year is after its last holds no year. A builder,
    # the marks constructor and a load refuse it in the same words, and the
    # command line before it reads a record, whatever --on-error says.
    problem = "year range 2030-2020: the first year is after the last"
    for build in (lambda: IndexBuilder(lexicon, min_year=2030, max_year=2020),
                  lambda: YearTermIndex(lexicon, 2030, 2020, []),
                  lambda: YearTermIndex(lexicon, 2030, 2020, [("a", 2025, 0, ())])):
        with pytest.raises(IndexBuildError, match=f"^{re.escape(problem)}$"):
            build()
    header, columns, ids = _parts(tmp_path, lexicon)
    path = tmp_path / "bad.idx"
    path.write_bytes(framed(packed(dict(header, min_year=2030, max_year=2020), columns, ids)))
    _assert_rejected(path, capsys, f"malformed payload ({problem})")
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out.idx"
    corpus.write_text('garbage\n{"id": "a", "year": 2025, "text": "an intricate plan"}\n',
                      encoding="utf-8")
    for on_error in ("abort", "skip"):
        assert main(["index", "--corpus", str(corpus), "--out", str(out), "--from", "2030",
                     "--to", "2020", "--on-error", on_error]) == 1
        assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert not out.exists()


_HUGE = 10**5000
_TOO_LONG = f"<an integer of more than {sys.get_int_max_str_digits()} digits>"


@pytest.mark.parametrize("call, error, problem", [
    (lambda lex: IndexBuilder(lex, min_year=_HUGE), IndexBuildError,
     f"year range {_TOO_LONG}-2100: the first year is after the last"),
    (lambda lex: IndexBuilder(lex).add(Document("a", _HUGE, "x")), IndexBuildError,
     f"document 'a': year {_TOO_LONG} outside allowed range 2000-2100"),
    (lambda lex: YearTermIndex(lex, _HUGE, 2100, []), IndexBuildError,
     f"year range {_TOO_LONG}-2100: the first year is after the last"),
    (lambda lex: YearTermIndex(lex, 2000, 2100, [("a", _HUGE, 0, ())]), IndexBuildError,
     f"document 'a': year {_TOO_LONG} outside allowed range 2000-2100"),
    (lambda lex: YearTermIndex(lex, 2000, _HUGE, [("a", _HUGE * 10, 0, ())]), IndexBuildError,
     f"document 'a': year {_TOO_LONG} outside allowed range 2000-{_TOO_LONG}"),
    (lambda lex: scan_index([Document("a", _HUGE, "x", (1,))], lex, Term("intricate")),
     IndexBuildError, f"a category in {_TOO_LONG} is not a string"),
    (lambda lex: eval_count(build_index([Document("a", 2023, "x")], lex), Term("intricate"),
                            _HUGE), UnknownYearError, f"no documents in year {_TOO_LONG}"),
], ids=["builder-bound", "builder-add", "marks-bound", "marks-year", "marks-both", "scan",
        "eval-count"])
def test_a_year_too_long_to_print_is_named_for_what_it_is(lexicon, call, error, problem):
    # Python prints no int of more digits than its limit: the message says
    # what the year is instead of failing to show it.
    with pytest.raises(error, match=f"^{re.escape(problem)}$"):
        call(lexicon)


@pytest.mark.parametrize("mask, shown", [(-1, "-1"), (1.0, "1.0"), (True, "True"),
                                         (1 << 44, str(1 << 44)), ("1", "'1'")],
                         ids=["negative", "float", "bool", "too-wide", "str"])
def test_a_mask_that_is_no_vocabulary_bitmask_is_a_build_error(lexicon, mask, shown):
    # The marks constructor takes the masks as given; one that is negative,
    # wider than the vocabulary or no int would become bits of no term or
    # of another document.
    assert len(lexicon.terms()) == 44
    problem = (f"document 'b': term bitmask {shown} is not an integer within the "
               "44-term vocabulary")
    with pytest.raises(IndexBuildError, match=f"^{re.escape(problem)}$"):
        YearTermIndex(lexicon, 2000, 2100, [("a", 2023, 1, ()), ("b", 2023, mask, ())])
    widest = [("a", 2023, 0, ()), ("b", 2023, (1 << 44) - 1, ())]
    assert list(YearTermIndex(lexicon, 2000, 2100, widest).doc_marks()) == widest


def _refused_on_every_path(lexicon, docs, problem):
    """Every build path refuses *docs* with the message *problem*: a
    build, a merge of two builders, a scan, a scan of one year and, for
    documents whose text is a string, the marks constructor. A builder
    that refuses a document keeps nothing of it."""
    q = Term("intricate")

    def merged():
        left, right = IndexBuilder(lexicon), IndexBuilder(lexicon)
        left.add(Document("z", 2023, "an intricate plan"))
        right.add_all(docs)
        left.merge(right)
        return left.finish()

    paths = [lambda: build_index(docs, lexicon), merged, lambda: scan_index(docs, lexicon, q),
             lambda: eval_count_scan(docs, lexicon, q, 2023)]
    if all(isinstance(doc[2], str) for doc in docs):
        paths.append(lambda: YearTermIndex(lexicon, 2000, 2100,
                                           [(i, y, 0, c) for i, y, _, c in docs]))
    for build in paths:
        with pytest.raises(IndexBuildError, match=f"^{re.escape(problem)}$"):
            build()
    builder, kept = IndexBuilder(lexicon), []
    for doc in docs:
        try:
            builder.add(doc)
            kept.append(doc)
        except IndexBuildError:
            pass
    assert len(kept) < len(docs)
    assert list(builder.finish().doc_marks()) == list(build_index(kept, lexicon).doc_marks())


@pytest.mark.parametrize("docs, problem", [
    ([Document("a", "2023", "an intricate plan")], "document 'a': year '2023' is not an integer"),
    ([Document("a", None, "an intricate plan")], "document 'a': year None is not an integer"),
    ([Document("a", 2023, 7)], "document 'a': text is not a string"),
    ([Document("a", 2023.0, "an intricate plan")], "document 'a': year 2023.0 is not an integer"),
    ([Document("a", True, "an intricate plan")], "document 'a': year True is not an integer"),
    ([Document("b", 2023, "an intricate plan"), Document("a", "2022", "an intricate plan")],
     "document 'a': year '2022' is not an integer"),
    ([Document("a", 2023, "an intricate plan", "cs.CL")],
     "document 'a': categories 'cs.CL' are not a tuple of strings"),
    ([Document("a", 2023, "an intricate plan", 7)],
     "document 'a': categories 7 are not a tuple of strings"),
    # A set's order, and so the category table, would vary with the hash seed.
    ([Document("a", 2023, "an intricate plan", {"physics", "biology", "cs"})],
     "document 'a': categories in a set have no order"),
    ([Document("a", 2023, "an intricate plan", frozenset({"physics", "cs"}))],
     "document 'a': categories in a set have no order"),
], ids=["str-year", "no-year", "int-text", "float-year", "bool-year", "str-year-beside-int",
        "str-categories", "int-categories", "set-categories", "frozenset-categories"])
def test_a_document_of_the_wrong_types_is_a_build_error(lexicon, docs, problem):
    # The corpus reader checks these types; a Document built in code
    # reaches every build path unchecked.
    _refused_on_every_path(lexicon, docs, problem)


@pytest.mark.parametrize("category, problem", [
    (7, "a category in 2023 is not a string"),
    (["c"], "a category in 2023 is not a string"),
    ("\ud800x", "a category in 2023 holds a lone surrogate U+D800"),
], ids=["int", "unhashable", "lone-surrogate"])
def test_a_category_that_is_no_string_is_a_build_error(lexicon, category, problem):
    # Beside string categories of the same year, it cannot be sorted into
    # the year's category table, or printed.
    docs = [Document("a", 2023, "x", (category,)), Document("b", 2023, "y", ("c",))]
    _refused_on_every_path(lexicon, docs, problem)


@pytest.mark.parametrize("ids", [(7,), (7, "d"), (["d"],)],
                         ids=["int", "int-beside-str", "unhashable"])
def test_a_document_id_that_is_no_string_is_a_build_error(lexicon, ids):
    # The corpus reader reads ids as strings; a Document built in code
    # reaches every build path unchecked, yet none of them may make an
    # index the loader would refuse.
    docs = [Document(i, 2023, "an intricate proof", ("a",)) for i in ids]
    _refused_on_every_path(lexicon, docs, "a document id in 2023 is not a string")


def _any_of_the_types(right):
    """A value of a Document field: mostly one drawn from *right*, else one
    of another type the field may wrongly hold, or a list of them."""
    wrong = st.one_of(st.sampled_from(["\ud800", "x\udfffy"]), st.integers(2022, 2023),
                      st.floats(2022, 2023), st.booleans(), st.none())
    wrong = st.one_of(wrong, st.lists(wrong, max_size=3))
    return st.integers(0, 4).flatmap(lambda n: right if n else wrong)


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(st.tuples(
    _any_of_the_types(st.sampled_from(["a", "b", "c", "d\ud800"])),
    _any_of_the_types(st.integers(2022, 2023)),
    _any_of_the_types(st.sampled_from(["an intricate plan", "x", "intricate \udfff"])),
    _any_of_the_types(st.lists(st.sampled_from(["c", "d", "\u00e9"]), max_size=2))), max_size=3))
def test_a_build_refuses_a_document_or_saves_a_file_that_loads(lexicon, docs):
    # save_index checks nothing, so what a build lets in must load, whether
    # the documents come through a builder or as marks.
    builds = [lambda: build_index(docs, lexicon),
              lambda: YearTermIndex(lexicon, 2000, 2100, [(i, y, 0, c) for i, y, _, c in docs])]
    for build in builds:
        try:
            index = build()
        except IndexBuildError:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.idx"
            save_index(index, path)
            assert list(load_index(path).doc_marks()) == list(index.doc_marks())


def test_a_document_refused_for_a_category_leaves_no_trace_in_the_builder(lexicon):
    # An unhashable category is refused when the document is added, before
    # its id or its year is recorded.
    builder = IndexBuilder(lexicon)
    with pytest.raises(IndexBuildError, match="^a category in 2022 is not a string$"):
        builder.add(Document("a", 2022, "an intricate plan", (["c"],)))
    builder.add(Document("a", 2023, "an intricate plan", ("c",)))
    index = builder.finish()
    assert list(index.doc_marks()) == [("a", 2023, 1 << index.term_bit("intricate"), ("c",))]


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


def test_the_committed_sample_answers_like_a_fresh_build(tmp_path, lexicon):
    sample = SAMPLE_INDEX
    assert index_file.unframed(sample.read_bytes())[0] == index_file.VERSION
    path = tmp_path / "sample.idx"
    save_index(build_index(load_corpus(bundled_corpus_path()), lexicon), path)
    old, new = load_index(sample), load_index(path)
    assert (old.lexicon, old.year_range, old.years) == (new.lexicon, new.year_range, new.years)
    assert old.doc_count == new.doc_count == 100
    expected = _answers(new, lexicon)
    assert _answers(old, lexicon) == expected
    assert _answers(load_index(sample), lexicon) == expected
    assert any(skew.rows for skew in expected[-1])


def test_the_committed_sample_holds_the_payload_a_fresh_build_writes(tmp_path, lexicon):
    # The committed file: inflated, so that another zlib build, which may
    # deflate differently, compares alike.
    path = tmp_path / "sample.idx"
    save_index(build_index(load_corpus(bundled_corpus_path()), lexicon), path)
    assert streams(SAMPLE_INDEX.read_bytes()) == streams(path.read_bytes())


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
    _, columns, _ = index_file.parts(path.read_bytes())
    width = len(lexicon.terms())
    assert len(columns) == width * ((docs + 7) // 8) + docs * row_bytes
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
                for q in queries for year in index.years] + list(index.doc_marks())

    expected = answers(load_index(path))
    # One set of columns that every reader shares, and ids that each of
    # them may be the first to decode.
    shared = load_index(path)
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


# --------------------------------------------------- the posting an index keeps


@pytest.mark.parametrize("seed", range(6))
def test_one_query_evaluates_alike_on_indexes_of_other_term_orders(lexicon, seed):
    """A query's posting over one index, kept by that index, is never used
    on another: one query object, evaluated by turns on a scan (its own terms,
    sorted) and on the lexicon's index, years reversed, counts and skews as
    the oracle does."""
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
    assert eval_count(index, known, 2023) == 1  # its posting kept
    for q in (known, Term("zebra")):
        for evaluate in (eval_count, category_skew):
            with pytest.raises(UnknownYearError, match="no documents in year 2030"):
                evaluate(index, q, 2030)


def _random_docs(lexicon, seed: int) -> list[Document]:
    rng = random.Random(seed)
    return make_random_corpus(rng, lexicon, 50, (2021, 2022, 2023))


def test_a_kept_posting_belongs_to_one_index(tmp_path, lexicon):
    """An index keeps the posting of the last query evaluated on it, and
    only for that query object: one query object, evaluated by turns on
    builds of two corpora over one lexicon and on a fresh build and its
    reload, years reversed, and two queries asked of one index by turns,
    year by year, count, skew and df as the oracle gives them."""
    first, second = _random_docs(lexicon, 31), _random_docs(lexicon, 32)
    index = build_index(first, lexicon)
    path = tmp_path / "first.idx"
    save_index(index, path)
    sources = [(index, first), (build_index(second, lexicon), second), (index, first),
               (load_index(path), first), (index, first)]
    rng = random.Random(33)
    queries = [make_random_query(rng, lexicon) for _ in range(12)]
    assert any(brute_force_count(first, q, 2023) != brute_force_count(second, q, 2023)
               for q in queries)
    for q in queries:
        for source, docs in sources:
            for year in reversed(source.years):
                assert eval_count(source, q, year) == brute_force_count(docs, q, year), q
                skew = category_skew(source, q, year)
                assert (skew.matched, skew.total, dict(skew.rows)) == \
                    brute_force_skew(docs, q, year), q
    for q, r in zip(queries, queries[1:]):
        for year in index.years:
            for p in (q, r):
                assert eval_count(index, p, year) == brute_force_count(first, p, year), p
    for source, docs in sources:
        for year in reversed(source.years):
            for term in lexicon.terms():
                assert source.df(term, year) == brute_force_count(docs, Term(term), year)


# Years of 1, 7, 8, 9 and 17 documents: bit ranges that start at 0, 8, 16,
# 24 and 40 and end inside a byte, on one or past it.
_BOUNDARY_SIZES = {2019: 1, 2020: 7, 2021: 8, 2022: 9, 2023: 17}


def _boundary_docs() -> list[Document]:
    """The first and the last document of each year hold a term; the rest
    draw a few words, terms among them, at random."""
    rng = random.Random(34)
    words = ["intricate", "notable", "large language model", "plain", "stone", "river"]
    docs = []
    for year, n in _BOUNDARY_SIZES.items():
        for i in range(n):
            text = " ".join(rng.choice(words) for _ in range(3))
            if i in (0, n - 1):
                text += " intricate" if i == 0 else " notable"
            cats = tuple(rng.sample(("x", "y", "z"), rng.randrange(1, 3)))
            docs.append(Document(f"d{year}-{i:02d}", year, text, cats))
    return docs


def _oracle_marks(docs: list[Document], bit, terms) -> list:
    """doc_marks() as the oracle gives them: rows by year, then id."""
    return [(d.id, d.year, sum(1 << bit(t) for t in terms
                               if brute_force_count([d], Term(t), d.year)), d.categories)
            for d in sorted(docs, key=lambda d: (d.year, d.id))]


def test_year_boundaries_answer_like_brute_force(tmp_path, lexicon):
    docs = _boundary_docs()
    index = build_index(docs, lexicon)
    path, again = tmp_path / "once.idx", tmp_path / "twice.idx"
    save_index(index, path)
    loaded = load_index(path)
    save_index(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    queries = [Term("intricate"), Term("notable"), Phrase(("large", "language", "model")),
               And((Term("intricate"), Term("notable"))),
               AtLeastK(2, ("intricate", "notable", "large language model")),
               Or((Term("notable"), AnyOf(("intricate", "gpt"))))]
    expected = _oracle_marks(docs, index.term_bit, lexicon.terms())
    for source in (index, loaded):
        assert [source.total(y) for y in source.years] == list(_BOUNDARY_SIZES.values())
        assert list(source.doc_marks()) == expected
    for q in queries:
        scan = scan_index(docs, lexicon, AnyOf(tuple(sorted(query_vocabulary(q)))))
        with pytest.raises(IndexBuildError, match="^a corpus scan keeps no document ids$"):
            list(scan.doc_marks())
        for source in (index, scan, loaded):
            for year in _BOUNDARY_SIZES:
                assert eval_count(source, q, year) == brute_force_count(docs, q, year), q
                skew = category_skew(source, q, year)
                assert (skew.matched, skew.total, dict(skew.rows)) == \
                    brute_force_skew(docs, q, year), q
                for term in query_vocabulary(q):
                    assert source.df(term, year) == brute_force_count(docs, Term(term), year)
    for year in _BOUNDARY_SIZES:
        assert brute_force_count(docs, Term("intricate"), year) >= 1
