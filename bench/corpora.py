"""Seeded corpus generators for the benchmark.

Every generator returns a :class:`Corpus`: the JSONL bytes lexdrift reads and,
for each well-formed record, the set of lexicon entries planted in its text.
The planted sets are the ground truth the oracle works from, so the text is
built to make them exact:

* filler words are lowercase ASCII pseudo-words that never equal a token of
  any lexicon entry (phrase parts included), so no entry can appear by
  accident;
* a planted entry is written as whole words separated by spaces, and its
  neighbours are filler, spaces or sentence punctuation, so it survives
  tokenization as a whole-word (or contiguous phrase) match;
* decoys (an entry glued to a suffix, "intricateish") are single tokens that
  must not match.

Same seed and parameters give byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

YEARS = (2019, 2020, 2021, 2022, 2023)
CATEGORIES = ("biomedical", "engineering", "humanities", "physics", "social")
_SYLLABLES = (
    "ba", "ko", "ri", "mu", "te", "sa", "lo", "ne", "vi", "du", "pa", "ge",
    "zo", "fi", "ha", "ju", "ur", "ol", "en", "ti",
)
# Malformed-record kinds injected into the sparse corpus, in rotation, one
# line per BAD_EVERY records.
BAD_KINDS = ("invalid_json", "missing_field", "duplicate_id", "year_out_of_range")
BAD_EVERY = 200


@dataclass
class Corpus:
    """Generated corpus and its ground truth."""

    data: bytes
    # (doc_id, year, categories, planted entries) for every good record, in
    # file order.
    docs: list[tuple[str, int, tuple[str, ...], frozenset[str]]]
    params: dict
    bad_lines: dict[str, int] = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


def lexicon_tokens(terms) -> set[str]:
    """Every lowercase word of every lexicon entry."""
    return {w for t in terms for w in t.casefold().split()}


def filler_words(rng: random.Random, count: int, forbidden: set[str]) -> list[str]:
    """*count* distinct letter-only pseudo-words, none in *forbidden*."""
    words: set[str] = set()
    while len(words) < count:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randrange(2, 5)))
        if w not in forbidden:
            words.add(w)
    return sorted(words)


def _categories(rng: random.Random) -> list[str]:
    return sorted(rng.sample(CATEGORIES, rng.choice((1, 1, 2))))


def _record(doc_id: str, year: int, text: str, cats: list[str]) -> bytes:
    return json.dumps(
        {"id": doc_id, "year": year, "text": text, "categories": cats}
    ).encode("utf-8") + b"\n"


def dense(seed: int, n_docs: int, terms) -> Corpus:
    """The acceptance suite's desk-scale shape: 400 twenty-word chunks, half
    with one marker (a lexicon entry, phrases included); each document joins
    ten random chunks (~200 words) and years rotate over five values."""
    rng = random.Random(seed)
    pool = sorted(terms)
    filler = filler_words(rng, 600, lexicon_tokens(terms))
    chunks: list[tuple[str, frozenset[str]]] = []
    for _ in range(400):
        words = [rng.choice(filler) for _ in range(20)]
        planted: frozenset[str] = frozenset()
        if rng.random() < 0.5:
            marker = rng.choice(pool)
            words[rng.randrange(20)] = marker
            planted = frozenset((marker,))
        chunks.append((" ".join(words), planted))
    out: list[bytes] = []
    docs = []
    for i in range(n_docs):
        picked = [rng.choice(chunks) for _ in range(10)]
        doc_id = f"p{i:07d}"
        year = YEARS[i % len(YEARS)]
        cats = _categories(rng)
        out.append(_record(doc_id, year, " ".join(c[0] for c in picked), cats))
        docs.append((doc_id, year, tuple(cats),
                     frozenset().union(*(c[1] for c in picked))))
    params = {"generator": "dense", "seed": seed, "n_docs": n_docs,
              "chunks": 400, "chunk_words": 20, "chunks_per_doc": 10,
              "marker_chunk_share": 0.5, "filler_words": 600,
              "years": list(YEARS)}
    return Corpus(b"".join(out), docs, params)


def sparse(seed: int, n_docs: int, terms, *, marked_share: float = 0.03) -> Corpus:
    """~200-word documents of Zipf-distributed filler in sentences; a
    lexicon entry (phrases included) appears in *marked_share* of them. One
    record in :data:`BAD_EVERY` is replaced by a malformed line, rotating
    through :data:`BAD_KINDS`."""
    rng = random.Random(seed)
    pool = sorted(terms)
    forbidden = lexicon_tokens(terms)
    filler = filler_words(rng, 3000, forbidden)
    # Zipf(1.1) over the filler as a lookup table: uniform draws from it are
    # much cheaper than weighted ones.
    weights = [1.0 / rank ** 1.1 for rank in range(1, len(filler) + 1)]
    scale = 200_000 / sum(weights)
    table = [w for w, weight in zip(filler, weights) for _ in range(max(1, round(weight * scale)))]
    decoys = [t + "ish" for t in pool if " " not in t and t + "ish" not in forbidden]

    n_bad = max(len(BAD_KINDS), n_docs // BAD_EVERY // len(BAD_KINDS) * len(BAD_KINDS))
    # Bad lines go after the first good record so a duplicate id has an
    # original to collide with.
    bad_at = sorted(rng.sample(range(1, n_docs + n_bad), n_bad))
    bad_kind = {pos: BAD_KINDS[k % len(BAD_KINDS)] for k, pos in enumerate(bad_at)}

    out: list[bytes] = []
    docs = []
    bad_lines = dict.fromkeys(BAD_KINDS, 0)
    good = 0
    for pos in range(n_docs + n_bad):
        kind = bad_kind.get(pos)
        if kind is not None:
            out.append(_bad_line(rng, kind, docs))
            bad_lines[kind] += 1
            continue
        words = rng.choices(table, k=200)
        planted: set[str] = set()
        if rng.random() < marked_share:
            # A phrase goes in as one element, so later insertions cannot
            # split it.
            for marker in rng.sample(pool, rng.choice((1, 1, 1, 2))):
                words.insert(rng.randrange(len(words) + 1), marker)
                planted.add(marker)
        if rng.random() < 0.05:
            words.insert(rng.randrange(len(words) + 1), rng.choice(decoys))
        doc_id = f"s{good:07d}"
        year = YEARS[good % len(YEARS)]
        cats = _categories(rng)
        out.append(_record(doc_id, year, _sentences(rng, words), cats))
        docs.append((doc_id, year, tuple(cats), frozenset(planted)))
        good += 1
    params = {"generator": "sparse", "seed": seed, "n_docs": n_docs,
              "doc_words": 200, "filler_words": len(filler), "zipf_s": 1.1,
              "marked_share": marked_share, "bad_every": BAD_EVERY,
              "bad_lines": n_bad, "years": list(YEARS)}
    return Corpus(b"".join(out), docs, params, bad_lines)


def _sentences(rng: random.Random, words: list[str]) -> str:
    """Capitalised sentences of 8-20 words, with the odd comma."""
    parts: list[str] = []
    i = 0
    while i < len(words):
        n = rng.randrange(8, 21)
        sent = words[i:i + n]
        i += n
        sent[0] = sent[0].capitalize()
        if len(sent) > 4 and rng.random() < 0.5:
            k = rng.randrange(1, len(sent) - 1)
            sent[k] += ","
        parts.append(" ".join(sent) + ".")
    return " ".join(parts)


def _bad_line(rng: random.Random, kind: str, docs) -> bytes:
    if kind == "invalid_json":
        return b'{"id": "broken-' + str(rng.randrange(10**6)).encode() + b'", "year": 20\n'
    if kind == "missing_field":
        return json.dumps({"id": f"nofield-{len(docs)}", "year": YEARS[0]}).encode() + b"\n"
    if kind == "duplicate_id":
        original = rng.choice(docs)[0]
        return _record(original, YEARS[-1], "intricate meticulous commendable", [])
    return _record(f"badyear-{len(docs)}", 1999, "intricate pivotal", [])

