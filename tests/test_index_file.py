"""The index-file reader of ``index_file.py``, written from the README
alone, reads what lexdrift writes: the rows of a file are its
``doc_marks()``, and counts taken from them by the brute-force oracle are
the ones ``eval_count`` gives."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexdrift import (
    Document,
    Lexicon,
    Term,
    TermEntry,
    YearTermIndex,
    build_index,
    builtin_lexicon,
    bundled_corpus_path,
    eval_count,
    load_corpus,
    load_index,
    save_index,
)

import index_file
from conftest import (
    FILLER,
    SAMPLE_INDEX,
    brute_force_count,
    make_random_corpus,
    make_random_query,
)

# Ids that share long prefixes, hold characters JSON escapes or that take
# more than one byte or UTF-16 unit, and the empty id.
_PREFIXES = st.sampled_from(["", "10.1000/j.nlp.2023.", "10.1000/j.nlp.2023.0", "x" * 40])
_IDS = st.lists(st.builds(str.__add__, _PREFIXES,
                          st.text(st.sampled_from('ab\n"\\é物\U0001F600'), max_size=3)),
                min_size=1, max_size=20, unique=True)
_WORDS = (*builtin_lexicon().terms(), *FILLER[:4])


@st.composite
def _corpora(draw) -> list[Document]:
    return [Document(doc_id, draw(st.sampled_from((2021, 2022, 2023))),
                     " ".join(draw(st.lists(st.sampled_from(_WORDS), max_size=6))),
                     tuple(draw(st.lists(st.sampled_from(("x", "y", "é")), max_size=2))))
            for doc_id in draw(_IDS)]


def _wide(tuples: int) -> list[Document]:
    """A year of *tuples* category tuples: past 256, a row takes two bytes."""
    return [Document(f"w{i:03d}", 2023, "an intricate case" if i % 3 else "plain",
                     (f"c{i:03d}",)) for i in range(tuples)]


@settings(max_examples=100, deadline=None)
@given(docs=_corpora())
@example(docs=_wide(256))
@example(docs=_wide(257))
def test_the_rows_of_a_file_are_its_doc_marks(lexicon, docs):
    index = build_index(docs, lexicon)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.idx"
        save_index(index, path)
        rows = index_file.rows(path.read_bytes())
        assert rows == list(load_index(path).doc_marks()) == list(index.doc_marks())


# Vocabularies of no entry, one, either side of 64 and past 128; years of 1,
# 7, 8, 9 and 17 documents, whose bits end inside a byte, on one or past it.
_WIDTHS = (0, 1, 63, 64, 65, 130)
_SIZES = {2019: 1, 2020: 7, 2021: 8, 2022: 9, 2023: 17}


@pytest.mark.parametrize("width", _WIDTHS)
def test_the_marks_of_every_vocabulary_width_come_back(tmp_path, width):
    """Drawn marks, each year's first document holding every entry, are the
    rows of the saved file, the doc_marks() of its build from documents and
    of its load, and those of the marks constructor."""
    terms = [f"t{chr(97 + k // 26)}{chr(97 + k % 26)}" for k in range(width)]
    lexicon = Lexicon(f"width {width}", tuple(TermEntry(t, "adjective") for t in terms))
    rng = random.Random(width)
    marks = [(f"d{year}-{i:02d}", year, (1 << width) - 1 if i == 0 else rng.getrandbits(width),
              tuple(rng.sample("xyz", rng.randrange(3))))
             for year, n in _SIZES.items() for i in range(n)]
    docs = [Document(doc_id, year, " ".join(t for k, t in enumerate(terms) if mask >> k & 1),
                     cats) for doc_id, year, mask, cats in marks]
    path = tmp_path / "wide.idx"
    build = build_index(docs, lexicon)
    save_index(build, path)
    assert index_file.rows(path.read_bytes()) == list(build.doc_marks()) \
        == list(load_index(path).doc_marks()) \
        == list(YearTermIndex(lexicon, 2000, 2100, marks).doc_marks()) == marks


def _as_documents(data: bytes) -> list[Document]:
    """A document for each row of the index file *data*, whose text is the
    lexicon entries its mask names. No phrase of the builtin lexicon is
    made of other entries, so the oracle finds in it those entries alone."""
    header, _, _ = index_file.parts(data)
    terms = [entry["term"] for entry in header["lexicon"]["entries"]]
    return [Document(doc_id, year, " ".join(t for k, t in enumerate(terms) if mask >> k & 1),
                     categories)
            for doc_id, year, mask, categories in index_file.rows(data)]


@pytest.mark.parametrize("seed", range(5))
def test_counts_from_the_rows_are_the_counts_eval_count_gives(tmp_path, lexicon, seed):
    rng = random.Random(seed)
    path = tmp_path / "random.idx"
    save_index(build_index(make_random_corpus(rng, lexicon, 150, (2021, 2022, 2023)), lexicon),
               path)
    docs, index = _as_documents(path.read_bytes()), load_index(path)
    queries = [make_random_query(rng, lexicon) for _ in range(30)]
    queries += [Term(term) for term in lexicon.terms()]
    for q in queries:
        for year in index.years:
            assert brute_force_count(docs, q, year) == eval_count(index, q, year), q


def test_the_reader_reads_the_sample_index():
    data = SAMPLE_INDEX.read_bytes()
    assert index_file.unframed(data)[0] == index_file.VERSION
    rows = index_file.rows(data)
    assert rows == list(load_index(SAMPLE_INDEX).doc_marks())
    # Each mask names the entries the oracle finds in the bundled corpus.
    header, _, _ = index_file.parts(data)
    terms = [entry["term"] for entry in header["lexicon"]["entries"]]
    assert rows == [(d.id, d.year, sum(1 << k for k, t in enumerate(terms)
                                       if brute_force_count([d], Term(t), d.year)), d.categories)
                    for d in sorted(load_corpus(bundled_corpus_path()),
                                    key=lambda d: (d.year, d.id))]
