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
    build_index,
    builtin_lexicon,
    eval_count,
    eval_count_scan,
    load_index,
    parse_query,
    save_index,
)

from lexdrift.cli import main

from conftest import FILLER, brute_force_count, make_random_corpus, make_random_query


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
    index = build_index(_docs((2023, "intricate")), lexicon)
    with pytest.raises(TypeError, match="not a query node"):
        eval_count(index, "intricate", 2023)


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


def _write_container(path, blob: bytes) -> None:
    """An index file around *blob* with a valid header and checksum."""
    header = _HEADER.pack(b"LXDX", 1, len(blob), hashlib.sha256(blob).digest())
    path.write_bytes(header + blob)


def _saved_payload(tmp_path, lexicon) -> dict:
    path = tmp_path / "good.idx"
    save_index(build_index(_docs((2023, "an intricate proof")), lexicon), path)
    return json.loads(zlib.decompress(path.read_bytes()[_HEADER.size:]))


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
], ids=["missing-key", "not-json", "not-zlib", "not-an-object", "not-utf8",
        "year-not-int", "mask-not-int", "mask-past-vocabulary",
        "category-not-str", "categories-not-list"])
def test_malformed_payload_is_an_index_file_error(tmp_path, lexicon, capsys, make_blob):
    path = tmp_path / "bad.idx"
    _write_container(path, make_blob(_saved_payload(tmp_path, lexicon)))
    with pytest.raises(IndexFileError, match="bad.idx"):
        load_index(path)
    assert main(["query", "intricate", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    shared = load_index(path)  # no year's columns built yet
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
