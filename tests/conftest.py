"""Shared test helpers: random corpora, random queries, and a brute-force
oracle evaluator that never touches lexdrift's tokenizer or index
machinery."""

from __future__ import annotations

import random
import zlib
from pathlib import Path
from typing import Sequence

import pytest

from lexdrift import (
    And,
    AtLeastK,
    Document,
    Lexicon,
    Or,
    Query,
    Term,
    builtin_lexicon,
)

# The index of the bundled sample corpus, kept with the tests so that a
# change to what a build writes shows.
SAMPLE_INDEX = Path(__file__).resolve().parent / "data" / "sample.idx"

FILLER = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa",
    "sigma", "omega", "north", "south", "east", "west", "river", "stone",
)


def pytest_report_header() -> str:
    # A re-save is compared with SAMPLE_INDEX byte for byte, and another zlib
    # build may deflate the same streams to other bytes.
    return f"zlib {zlib.ZLIB_VERSION} (compiled), {zlib.ZLIB_RUNTIME_VERSION} (runtime)"


@pytest.fixture(scope="session")
def lexicon() -> Lexicon:
    return builtin_lexicon()


def make_random_corpus(rng: random.Random, lexicon: Lexicon, n_docs: int,
                       years: tuple[int, ...]) -> list[Document]:
    """Documents with random filler plus random vocabulary placements,
    including multi-token phrases dropped in verbatim."""
    vocab = sorted(lexicon.terms())
    docs = []
    for i in range(n_docs):
        words = [rng.choice(FILLER) for _ in range(rng.randrange(3, 12))]
        for _ in range(rng.randrange(0, 5)):
            words.insert(rng.randrange(len(words) + 1), rng.choice(vocab))
        # sometimes concatenate a vocab word with filler so that substring
        # (non-whole-word) occurrences exist and must NOT match
        if rng.random() < 0.3:
            words.append(rng.choice(vocab).replace(" ", "") + "ish")
        docs.append(Document(
            id=f"d{i:04d}",
            year=rng.choice(years),
            text=" ".join(words),
            categories=(rng.choice(("x", "y", "z")),),
        ))
    return docs


_JOINERS = "'’-"


def oracle_tokens(text: str, fold: bool = True) -> list[str]:
    """The README's tokenizer rules, written out character by character:
    after case folding (unless *fold* is false, as for a case-sensitive
    entry), maximal runs of letters, where a single apostrophe or hyphen
    with a letter on each side stays inside the token, and a curly
    apostrophe reads as a straight one."""
    if fold:
        text = text.casefold()
    tokens: list[str] = []
    current = ""
    for i, ch in enumerate(text):
        if ch.isalpha():
            current += ch
        elif (ch in _JOINERS and current and i + 1 < len(text)
              and text[i + 1].isalpha()):
            current += ch
        elif current:
            tokens.append(current)
            current = ""
    if current:
        tokens.append(current)
    return [tok.replace("’", "'") for tok in tokens]


def brute_force_count(docs: list[Document], q: Query, year: int,
                      cased: frozenset[str] = frozenset()) -> int:
    """Per-document reference evaluation, straight from the query semantics;
    a member named in *cased* is matched without case folding."""
    return sum(
        1 for d in docs if d.year == year and _matches(
            oracle_tokens(d.text), q, cased, oracle_tokens(d.text, fold=False) if cased else ())
    )


def brute_force_skew(docs: list[Document], q: Query,
                     year: int) -> tuple[int, int, dict[str, tuple[float, float]]]:
    """(matching documents, all documents, {category: (share among matches,
    share among all)}) of *year*, document by document; a document counts
    once for each category it lists, a repeated one included."""
    in_year = [d for d in docs if d.year == year]
    hits = [d for d in in_year if _matches(oracle_tokens(d.text), q)]

    def tally(group: list[Document]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for d in group:
            for cat in d.categories:
                counts[cat] = counts.get(cat, 0) + 1
        return counts

    among_hits, among_all = tally(hits), tally(in_year)
    rows = {cat: (among_hits.get(cat, 0) / len(hits) if hits else 0.0, n / len(in_year))
            for cat, n in sorted(among_all.items())}
    return len(hits), len(in_year), rows


def _contains_phrase(tokens: Sequence[str], phrase: tuple[str, ...]) -> bool:
    n = len(phrase)
    return any(
        tuple(tokens[i:i + n]) == phrase for i in range(len(tokens) - n + 1)
    )


def _member_present(tokens: Sequence[str], token_set: set[str], member: str,
                    cased: frozenset[str], raw: Sequence[str]) -> bool:
    fold = member not in cased
    if not fold:
        tokens, token_set = raw, set(raw)
    toks = tuple(oracle_tokens(member, fold))
    if not toks:  # a member with no tokens, such as "123", matches nothing
        return False
    if len(toks) == 1:
        return toks[0] in token_set
    return _contains_phrase(tokens, toks)


def _matches(tokens: list[str], q: Query, cased: frozenset[str] = frozenset(),
             raw: Sequence[str] = ()) -> bool:
    """Whether a document of folded *tokens* satisfies *q*; the members in
    *cased* are looked for in its *raw* tokens, whose case is kept."""
    token_set = set(tokens)
    if isinstance(q, Term):
        return _member_present(tokens, token_set, q.term, cased, raw)
    if isinstance(q, AtLeastK):
        hits = sum(1 for m in q.members if _member_present(tokens, token_set, m, cased, raw))
        return hits >= q.k
    if isinstance(q, And):
        return all(_matches(tokens, part, cased, raw) for part in q.parts)
    if isinstance(q, Or):
        return any(_matches(tokens, part, cased, raw) for part in q.parts)
    raise TypeError(f"unknown query node {type(q).__name__}")


def make_random_query(rng: random.Random, lexicon: Lexicon, depth: int = 3) -> Query:
    """Random AST over the lexicon vocabulary, nesting depth <= *depth*."""
    vocab = sorted(lexicon.terms())
    phrases = [t for t in vocab if " " in t]
    singles = [t for t in vocab if " " not in t]

    def leaf() -> Query:
        kind = rng.randrange(4)
        if kind == 0 and phrases:
            return Term(" ".join(oracle_tokens(rng.choice(phrases))))
        if kind == 1 or kind == 2:  # any() is atleast(1, ...)
            members = tuple(rng.sample(vocab, rng.randrange(2, 6)))
            return AtLeastK(1 if kind == 1 else rng.randrange(1, len(members) + 1), members)
        return Term(rng.choice(singles))

    def node(d: int) -> Query:
        if d <= 0 or rng.random() < 0.4:
            return leaf()
        parts = tuple(node(d - 1) for _ in range(rng.randrange(2, 4)))
        return And(parts) if rng.random() < 0.5 else Or(parts)

    return node(depth)
